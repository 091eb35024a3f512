"""End-to-end acceptance suite.

Each test prints exactly one ``ACCEPTANCE n: PASS|FAIL`` line and then
asserts, so the ten criteria can be read off a ``pytest -v`` run (or the
captured stdout of failures) at a glance.  Tolerances are fixed here and
must not be loosened to make a criterion pass; a red criterion means the
implementation or the shipped data genuinely does not meet it.

Every bound states what the method promises, derived in the test's
comments or docstring: the convergence order of each scheme (criteria 1
and 3), the stability thresholds of the step matrices (criteria 2, 3
and 5), and, for the T-D scenario, the spectral radius of the macro-step
map linearised about its operating point (criterion 7).
"""

import dataclasses
import time

import numpy as np
import pytest

from cotds import linlab
from cotds.cosim import (CouplingMethod, CouplingSchedule, TimeSeriesLog,
                         exchange_step, run_cosimulation)
from cotds.engine import (
    RunMethod,
    Verdict,
    build_subsystems,
    compare_runs,
    detect_convergence,
    iterative_td_powerflow_init,
    run_scenario,
)
from cotds.linlab import (
    LinearCoupledParams,
    SchemeId,
    StateVec2,
    StepConfig,
    build_step_matrix,
    find_stability_threshold,
    local_truncation_error,
    simulate_linear,
    spectral_radius,
)
from cotds.scenario_io import fixture_path, load_scenario

P_STIFF = LinearCoupledParams(-1.0, -10.0, 2.0, 2.0)
P_MILD = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)
X0 = StateVec2(1.0, 1.0)

ALL_SCHEMES = (SchemeId.TOTAL_TRAPEZOIDAL, SchemeId.COSIM_PARALLEL,
               SchemeId.COSIM_SERIES)

# trapezoidal rule: second order; either co-simulation schedule holds the
# exchanged input constant over a macro step, which is first order
ORDER = {SchemeId.TOTAL_TRAPEZOIDAL: 2, SchemeId.COSIM_PARALLEL: 1,
         SchemeId.COSIM_SERIES: 1}
ORDER_STEPS = (0.1, 0.05, 0.025)


def verdict_line(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} failed: {detail}"


def bus_voltage_channels(columns):
    """Transmission bus voltage magnitudes (feeder nodes are not buses)."""
    return [c for c in columns if c.startswith("T.bus")]


def char_poly_radius(m):
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return float(np.max(np.abs(np.roots([1.0, -tr, det]))))


def max_tracking_error(p, h, t_end, scheme, n_micro=100):
    traj = simulate_linear(p, X0, h, n_micro, t_end, scheme)
    err = 0.0
    for t, s in zip(traj.times, traj.states):
        ref = linlab.analytic_solution(p, X0, float(t)).as_array()
        err = max(err, float(np.max(np.abs(s - ref))))
    return err


def observed_orders(p, t_end, scheme):
    """Max tracking errors over ORDER_STEPS and log2 of successive ratios."""
    errs = [max_tracking_error(p, h, t_end, scheme) for h in ORDER_STEPS]
    return errs, [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]


def converges_at_order(errs, orders, p):
    """Errors strictly fall and the observed orders fit order p.

    Pre-asymptotically the error is e(H) = C H^p (1 + b H + O(H^2)), so
    the observed order log2(e(H)/e(H/2)) = p + log2((1 + bH)/(1 + bH/2))
    = p + bH/(2 ln 2) + O(H^2): it departs from p by a term of first
    order in H, which halves when H halves.  The widest window that
    still tells order p from p - 1 or p + 1 is +-1/2; it applies to the
    coarsest pair of steps, and the next pair, at half the step, gets
    half of it.
    """
    return (all(a > b for a, b in zip(errs, errs[1:]))
            and all(abs(o - p) <= 0.5 / 2 ** k for k, o in enumerate(orders)))


def linear_log(traj):
    log = TimeSeriesLog(columns=["x_a", "x_b"], diverged=traj.diverged)
    for t, s in zip(traj.times, traj.states):
        log.append(float(t), s)
    return log


# -- linearised macro step of the T-D scenario --------------------------------
#
# The model has no infinite bus: turning every machine angle and every
# phasor by the same angle maps solutions onto solutions.  After the motor
# start the system settles with a frequency offset and keeps turning, so
# its operating point is fixed only in a frame that turns with machine 1.
# The macro-step map is therefore linearised in that frame: after each
# step every sub-system is turned by minus machine 1's angle.  Taken in
# the fixed frame, the symmetry adds an eigenvalue within about 1e-3 of 1
# for either schedule, which says nothing about stability.
#
# The map perturbs every component of every sub-system's ``state()``.
# Most of them are what a step reads and nothing overwrites first: the
# machine states, the bus voltages (the trapezoidal step evaluates f at
# the start-of-step voltages), the motor states and the power each D
# sub-system last reported (the T side reads it at the next step).  The
# rest add no eigenvalue that matters:
# - the inputs are overwritten by the exchange before anything reads
#   them, so their columns are zero, and a zero column only adds an
#   eigenvalue 0;
# - machine 1's angle is zero after every turn, so its row is zero,
#   which also only adds an eigenvalue 0;
# - the feeder node voltages are only the first guess of a sweep solved
#   to its tolerance, so their columns hold noise of that tolerance
#   divided by the difference step, 2 eps.
# A motor switched off would carry its state through unchanged, an
# eigenvalue of modulus 1; after testcase1's event every motor runs.


def macro_step_radius(subsystems, method, h, eps=1e-5):
    """Spectral radius of one macro step's amplification matrix.

    Central finite differences of the map z -> z' about the sub-systems'
    present state, every step taken from ``set_state``; the sub-systems
    are put back in that state at the end.  Only the kept Newton
    Jacobian carries over from one step to the next.
    """
    subs = list(subsystems.values())
    step = exchange_step(subsystems, method)
    bounds = np.cumsum([sub.state().size for sub in subs])[:-1]

    def state():
        return np.concatenate([sub.state() for sub in subs])

    def set_state(z):
        for sub, part in zip(subs, np.split(z, bounds)):
            sub.set_state(part)

    def to_machine1_frame():
        angle = subsystems["T"].snapshot()["gen1.delta"]
        for sub in subs:
            sub.rotate(-angle)

    start = state()
    to_machine1_frame()
    z0 = state()

    def mapped(z):
        set_state(z)
        # a perturbed state is off the interface consistency by design, so
        # the step is taken without run_cosimulation's initial check
        step(h, set())
        to_machine1_frame()
        return state()

    amp = np.empty((z0.size, z0.size))
    for k in range(z0.size):
        dz = np.zeros(z0.size)
        dz[k] = eps * max(1.0, abs(z0[k]))
        amp[:, k] = (mapped(z0 + dz) - mapped(z0 - dz)) / (2.0 * dz[k])
    set_state(start)
    return float(np.max(np.abs(np.linalg.eigvals(amp))))


# -- shared expensive runs ---------------------------------------------------


@pytest.fixture(scope="module")
def testcase1_matrix():
    """Series/parallel runs of testcase1 at H = 0.006 and 0.037."""
    scenario = load_scenario(fixture_path("testcase1"))
    t0 = time.perf_counter()
    runs = {}
    for method in (RunMethod.SERIES, RunMethod.PARALLEL):
        for h in (0.006, 0.037):
            s = dataclasses.replace(scenario, method=method, h_macro=h)
            runs[(method, h)] = run_scenario(s)
    wall = time.perf_counter() - t0
    return runs, wall


@pytest.fixture(scope="module")
def testcase1_radii():
    """Macro-step spectral radius at H = 0.037 for both schedules.

    Linearised about testcase1's post-event operating point: the state a
    series run at H = 0.037 reaches at t_end, four seconds after the motor
    start at 11 s.
    """
    scenario = load_scenario(fixture_path("testcase1"))
    subsystems, dsubs, interface_buses = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface_buses)
    log = run_cosimulation(
        CouplingSchedule(0.037, scenario.t_end, tuple(scenario.events)),
        subsystems, CouplingMethod.SERIES)
    assert log.failure is None, log.failure
    return {method: macro_step_radius(subsystems, method, 0.037)
            for method in (CouplingMethod.PARALLEL, CouplingMethod.SERIES)}


# -- criteria ----------------------------------------------------------------


def test_criterion_1_analytic_tracking():
    """Each scheme tracks the analytic solution at its own order.

    No absolute error bound: at H = 0.1 on P_STIFF the trapezoidal rule
    alone errs by 2.5e-2 (driven by the fast eigenvalue -9.53), and the
    co-simulation schedules carry the first-order error of holding the
    exchanged input constant over a macro step.
    """
    t0 = time.perf_counter()
    res = {s: observed_orders(P_STIFF, 5.0, s) for s in ALL_SCHEMES}
    wall = time.perf_counter() - t0
    ok = (all(converges_at_order(*res[s], ORDER[s]) for s in ALL_SCHEMES)
          and wall < 1.0)
    detail = ("max errors at H=0.1 and observed orders: "
              + ", ".join(f"{s.value}={res[s][0][0]:.3e} p="
                          + "/".join(f"{o:.3f}" for o in res[s][1])
                          for s in ALL_SCHEMES)
              + f"; wall={wall:.2f}s")
    verdict_line(1, ok, detail)


def test_criterion_2_spectral_radii():
    t0 = time.perf_counter()
    cfg = StepConfig(0.75, 100)
    rho = {}
    for scheme in ALL_SCHEMES:
        m = build_step_matrix(P_MILD, cfg, scheme)
        rho[scheme] = spectral_radius(m)
        assert abs(rho[scheme] - char_poly_radius(m)) < 1e-10
    wall = time.perf_counter() - t0
    ok = (0.95 <= rho[SchemeId.COSIM_PARALLEL] <= 1.02
          and rho[SchemeId.COSIM_SERIES] <= 0.5
          and rho[SchemeId.TOTAL_TRAPEZOIDAL] < 1.0
          and wall < 0.1)
    detail = (f"rho_parallel={rho[SchemeId.COSIM_PARALLEL]:.6f}, "
              f"rho_series={rho[SchemeId.COSIM_SERIES]:.6f}, "
              f"rho_total={rho[SchemeId.TOTAL_TRAPEZOIDAL]:.6f}, "
              f"wall={wall * 1e3:.1f}ms")
    verdict_line(2, ok, detail)


def test_criterion_3_dichotomy():
    # H midway between the two stability thresholds of P_MILD (0.7995 and
    # 1.1953): the parallel step matrix is unstable there and the series
    # one is not, so the parallel run must not be called Converged while
    # the series run converges to the solution
    h_par = find_stability_threshold(P_MILD, SchemeId.COSIM_PARALLEL, 100)
    h_ser = find_stability_threshold(P_MILD, SchemeId.COSIM_SERIES, 100)
    h = 0.5 * (h_par + h_ser)
    par = simulate_linear(P_MILD, X0, h, 100, 10.0, SchemeId.COSIM_PARALLEL)
    par_verdict = detect_convergence(linear_log(par))

    ser = simulate_linear(P_MILD, X0, h, 100, 10.0, SchemeId.COSIM_SERIES)
    ser_verdict = detect_convergence(linear_log(ser))
    ref = linlab.analytic_solution(P_MILD, X0, float(ser.times[-1]))
    ser_err = float(np.max(np.abs(ser.states[-1] - ref.as_array())))

    # at small H both schedules track the solution at first order
    small = {s: observed_orders(P_MILD, 10.0, s)
             for s in (SchemeId.COSIM_PARALLEL, SchemeId.COSIM_SERIES)}
    ok = (h_par < h_ser
          and par_verdict in (Verdict.OSCILLATORY, Verdict.DIVERGED)
          and ser_verdict is Verdict.CONVERGED
          and ser_err <= 0.05
          and all(converges_at_order(*r, 1) for r in small.values()))
    detail = (f"H={h:.4f} in ({h_par:.4f}, {h_ser:.4f}): "
              f"parallel verdict={par_verdict.value}, "
              f"series verdict={ser_verdict.value}, "
              f"series err(t=10)={ser_err:.3e}; observed orders "
              + ", ".join(f"{s.value}=" + "/".join(f"{o:.3f}" for o in r[1])
                          for s, r in small.items()))
    verdict_line(3, ok, detail)


def test_criterion_4_consistency_order():
    hs = np.geomspace(1e-4, 1e-2, 5)
    slopes, monotone = {}, {}
    for scheme in ALL_SCHEMES:
        norms = []
        for h in hs:
            tau = local_truncation_error(P_STIFF, X0, float(h), scheme, 100)
            norms.append(float(np.hypot(tau.x_a, tau.x_b)))
        slopes[scheme] = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
        monotone[scheme] = all(a < b for a, b in zip(norms, norms[1:]))
    ok = (slopes[SchemeId.TOTAL_TRAPEZOIDAL] >= 1.9
          and slopes[SchemeId.COSIM_PARALLEL] >= 0.9
          and slopes[SchemeId.COSIM_SERIES] >= 0.9
          and all(monotone.values()))
    detail = ", ".join(f"{s.value}: slope={slopes[s]:.3f}"
                       for s in ALL_SCHEMES)
    verdict_line(4, ok, detail)


def test_criterion_5_stability_ordering():
    ratios = {}
    for tag, p in (("stiff", P_STIFF), ("mild", P_MILD)):
        h_par = find_stability_threshold(p, SchemeId.COSIM_PARALLEL, 100)
        h_ser = find_stability_threshold(p, SchemeId.COSIM_SERIES, 100)
        ratios[tag] = (h_ser, h_par, h_ser / h_par)
    # P_STIFF reverses the ordering, and both thresholds have closed forms.
    # Once the Euler growth (1 + H lambda_b / n)^n is negligible (0.5^100
    # at H = 5) the series step matrix has rank one, with eigenvalue
    # (1 + lambda_a H/2 - k_a k_b H/|lambda_b|) / (1 - lambda_a H/2); it
    # reaches -1 at H = 2 |lambda_b| / (k_a k_b).  The parallel determinant
    # stays below 2 k_a k_b / (|lambda_a| |lambda_b|) = 0.8 and its trace
    # within (-1, 1), so parallel is stable up to the Euler micro-step
    # limit H = 2 n / |lambda_b| (n = 100 micro steps), where the B block's
    # eigenvalue reaches 1.
    p = P_STIFF
    want_ser = 2.0 * abs(p.lambda_b) / (p.k_a * p.k_b)
    want_par = 2.0 * 100 / abs(p.lambda_b)
    stiff_ser, stiff_par, _ = ratios["stiff"]
    # find_stability_threshold bisects to 1e-10 * max(1, H)
    ok = (abs(stiff_ser - want_ser) <= 1e-10 * max(1.0, want_ser)
          and abs(stiff_par - want_par) <= 1e-10 * max(1.0, want_par)
          and ratios["mild"][2] >= 1.2)
    detail = ", ".join(
        f"{tag}: H*_series={r[0]:.4f}, H*_parallel={r[1]:.4f}, "
        f"ratio={r[2]:.3f}" for tag, r in ratios.items())
    detail += (f"; stiff closed forms: series={want_ser:.4f}, "
               f"parallel={want_par:.4f}")
    verdict_line(5, ok, detail)


def test_criterion_6_stepper_matrix_equivalence():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        p = LinearCoupledParams(
            lambda_a=-float(rng.uniform(0.2, 5.0)),
            lambda_b=-float(rng.uniform(0.2, 5.0)),
            k_a=float(rng.uniform(0.2, 3.0)),
            k_b=float(rng.uniform(0.2, 3.0)))
        cfg = StepConfig(float(rng.uniform(0.01, 1.0)),
                         int(rng.integers(1, 50)))
        x = StateVec2(float(rng.normal()), float(rng.normal()))
        for scheme in ALL_SCHEMES:
            m = build_step_matrix(p, cfg, scheme)
            # one macro step of the production march
            got = simulate_linear(p, x, cfg.h_macro, cfg.n_micro,
                                  cfg.h_macro, scheme).states[-1]
            want = m @ x.as_array()
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-10
    verdict_line(6, ok, f"worst |stepper - M.x| = {worst:.3e}")


def test_criterion_7_cotds_verdict_matrix(testcase1_matrix, testcase1_radii):
    runs, wall = testcase1_matrix
    rho_p37 = testcase1_radii[CouplingMethod.PARALLEL]
    rho_s37 = testcase1_radii[CouplingMethod.SERIES]
    res_s6 = runs[(RunMethod.SERIES, 0.006)]
    res_p6 = runs[(RunMethod.PARALLEL, 0.006)]
    res_s37 = runs[(RunMethod.SERIES, 0.037)]
    res_p37 = runs[(RunMethod.PARALLEL, 0.037)]

    vbus = bus_voltage_channels(res_s6.log.columns)
    dev_ps = compare_runs(res_p6.log, res_s6.log, channels=vbus).worst

    v6 = res_s6.log.channel("T.bus6.vmag")
    t = res_s6.log.time_array
    pre = float(v6[np.searchsorted(t, 11.0) - 2])
    dip = pre - float(v6.min())
    recovery = abs(float(v6[-1]) - pre)

    checks = {
        "parallel@0.006 Converged":
            res_p6.verdict is Verdict.CONVERGED,
        "series@0.006 Converged":
            res_s6.verdict is Verdict.CONVERGED,
        "parallel-series bus-voltage dev <= 0.005":
            dev_ps <= 0.005,
        # the verdict the linearised macro step predicts: Converged
        # exactly when its spectral radius is below 1
        "parallel@0.037 verdict as linearisation predicts":
            (res_p37.verdict is Verdict.CONVERGED) == (rho_p37 < 1.0),
        "series@0.037 Converged":
            res_s37.verdict is Verdict.CONVERGED,
        "runtime < 60 s": wall < 60.0,
        "bus-6 dip >= 0.01": dip >= 0.01,
        "recovery within 0.005": recovery <= 0.005,
    }
    failed = [k for k, v in checks.items() if not v]
    detail = (f"dev_PS={dev_ps:.4f}, dip={dip:.4f}, "
              f"recovery={recovery:.4f}, wall={wall:.1f}s, "
              f"P@0.037={res_p37.verdict.value}, "
              f"rho@0.037: parallel={rho_p37:.5f}, series={rho_s37:.5f}"
              + (f"; failed: {failed}" if failed else ""))
    verdict_line(7, not failed, detail)


def test_criterion_8_coupling_error_isolation():
    def dev_series_vs_mono(scenario, h):
        ser = run_scenario(dataclasses.replace(
            scenario, method=RunMethod.SERIES, h_macro=h))
        mono = run_scenario(dataclasses.replace(
            scenario, method=RunMethod.MONOLITHIC, h_macro=h))
        vbus = bus_voltage_channels(ser.log.columns)
        return compare_runs(ser.log, mono.log, channels=vbus).worst, ser

    tc1 = load_scenario(fixture_path("testcase1"))
    dev1_6, _ = dev_series_vs_mono(tc1, 0.006)
    dev1_3, _ = dev_series_vs_mono(tc1, 0.003)

    # testcase2: feeder connection at t=1 s, dip + q-injection spike,
    # series vs monolithic within the same bound
    tc2 = load_scenario(fixture_path("testcase2"))
    dev2, ser2 = dev_series_vs_mono(tc2, 0.006)
    t = ser2.log.time_array
    v2 = ser2.log.channel("T.bus2.vmag")
    k = np.searchsorted(t, 1.0) - 2
    dip = float(v2[k] - v2.min())
    q = ser2.log.channel("D2.out[1]")
    q_spike = float(q.max() - q[k])

    ok = (dev1_6 <= 0.01 and dev1_3 < dev1_6
          and dev2 <= 0.01 and dip > 0.0 and q_spike > 0.0)
    detail = (f"testcase1: dev@0.006={dev1_6:.3e}, dev@0.003={dev1_3:.3e}; "
              f"testcase2: dev@0.006={dev2:.3e}, dip={dip:.4f}, "
              f"q_spike={q_spike:.4f}")
    verdict_line(8, ok, detail)


def test_criterion_9_equilibrium_hold():
    worst = 0.0
    for name in ("testcase1", "testcase2"):
        scenario = dataclasses.replace(load_scenario(fixture_path(name)),
                                       events=[], t_end=10.0)
        for method in (RunMethod.SERIES, RunMethod.PARALLEL,
                       RunMethod.MONOLITHIC):
            res = run_scenario(dataclasses.replace(scenario, method=method))
            arr = res.log.as_array()
            drift = float(np.max(np.abs(arr - arr[0])))
            worst = max(worst, drift)
    ok = worst <= 1e-6
    verdict_line(9, ok, f"worst channel drift over 10 s = {worst:.3e}")


def test_criterion_10_feeder_sweep_oracle():
    scenario = load_scenario(fixture_path("testcase2"))
    subsystems, dsubs, interface = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface)
    worst = 0.0
    n_checked = 0
    for sub in dsubs.values():
        v_sub = complex(sub.current_input[0], sub.current_input[1])
        for fd in sub.feeders:
            if not fd.active:
                fd.initialize(v_sub)  # disconnected spare: solve it anyway
            fd.sweep(v_sub, tol=1e-12)
            v_ref = _dense_nodal(fd, v_sub)
            worst = max(worst, float(np.max(np.abs(fd.v - v_ref))))
            n_checked += 1
    ok = worst <= 1e-8 and n_checked > 0
    verdict_line(10, ok,
                 f"{n_checked} feeders, worst node-voltage "
                 f"discrepancy = {worst:.3e}")


def _dense_nodal(fd, v_sub, tol=1e-13):
    from cotds.loads import zip_power
    n = fd.n_nodes
    y = np.zeros((n, n), dtype=complex)
    for br in fd.branches:
        ybr = 1.0 / br.z
        y[br.parent, br.parent] += ybr
        y[br.child, br.child] += ybr
        y[br.parent, br.child] -= ybr
        y[br.child, br.parent] -= ybr
    v = np.full(n, v_sub, dtype=complex)
    for _ in range(400):
        i = np.zeros(n, dtype=complex)
        for node, zl in fd.zip_loads.items():
            s = zip_power(zl, abs(v[node]))
            i[node] -= np.conj(s / v[node])
        for mu in fd.motors:
            if mu.active:
                s = mu.motor.terminal_power(mu.state[0], v[mu.node])
                i[mu.node] -= np.conj(s / v[mu.node])
        rhs = i[1:] - y[1:, 0] * v_sub
        v_new = np.linalg.solve(y[1:, 1:], rhs)
        delta = float(np.max(np.abs(v_new - v[1:])))
        v[1:] = v_new
        if delta < tol:
            break
    return v
