"""The macro step's hot path against the forms it replaced, bit for bit.

The feeder sweep, the motor model and the march's record were cut down to fewer Python calls and numpy scalar reads
while they evaluate the same floating-point operations in the same order.
The forms they replaced are kept here verbatim as oracles, and every
comparison is on raw bytes: on seeded random states, and at every call of
a co-simulation across ``testcase1``'s motor start.
"""

import math

import numpy as np
import pytest

from cotds.cosim import (CouplingMethod, CouplingSchedule, Event,
                         TimeSeriesLog, exchange_step, march)
from cotds.engine import (RunMethod, build_subsystems,
                          iterative_td_powerflow_init, run_scenario)
from cotds.feeder import (DistributionFeeder, FeederBranch, FeederError,
                          MotorUnit)
from cotds.integrators import rk_component_step
from cotds.loads import (InductionMotor, InductionMotorParams, ZipLoadParams,
                         zip_power)
from cotds.scenario_io import fixture_path, load_scenario, read_csv, write_csv

OMEGA_S = 2.0 * np.pi * 60.0


def raw(*values) -> bytes:
    """The bytes of complex and float values, the sign of a zero kept."""
    return np.array(values, dtype=complex).tobytes()


# -- the replaced forms, verbatim but for ``self`` ----------------------------


def old_stator_current(motor, e_p, v):
    return (v - e_p) / motor._zs


def old_mech_torque(motor, slip):
    speed = 1.0 - slip
    ref = 1.0 - motor.s0
    return motor.tm0 * (speed / ref) ** 2


def old_terminal_power(motor, x, v):
    e_p = complex(x[0], x[1])
    i = old_stator_current(motor, e_p, v)
    return v * i.conjugate() * motor.p.mva_scale


def old_derivatives(motor, e_p, slip, v):
    i = old_stator_current(motor, e_p, v)
    de = (-1j * slip * motor.omega_s * e_p
          - (e_p - 1j * motor._dx * i) / motor._t0)
    te = (e_p * i.conjugate()).real
    ds = (old_mech_torque(motor, slip) - te) / (2.0 * motor.p.h_m)
    return de, ds


def old_node_currents(fd, v, states=None):
    i = [0j] * fd.n_nodes
    try:
        for node, zl in fd.zip_loads.items():
            vn = v[node]
            try:
                vm = abs(vn)
            except OverflowError:
                vm = math.inf
            i[node] += (zip_power(zl, vm) / vn).conjugate()
        for k, mu in enumerate(fd.motors):
            if not mu.active:
                continue
            x = mu.state if states is None else states[k]
            vn = v[mu.node]
            i[mu.node] += (old_terminal_power(mu.motor, x, vn)
                           / vn).conjugate()
    except ZeroDivisionError:
        raise FeederError("zero voltage at a loaded node") from None
    return i


def old_sweep_pass(fd, v, v_sub):
    acc = old_node_currents(fd, v)
    edges = [(br.parent, br.child, br.z) for br in fd.branches]
    for p, c, _ in reversed(edges):
        acc[p] += acc[c]
    v_new = [v_sub] * fd.n_nodes
    for p, c, z in edges:
        v_new[c] = v_new[p] - z * acc[c]
    return v_new, acc[0]


def old_sweep(fd, v_sub, tol=1e-8):
    """The source current, the node voltages and the passes the sweep
    took; ``fd`` is left as it was."""
    v_sub = complex(v_sub)
    v = fd.v.tolist()
    v[0] = v_sub
    for k in range(100):
        v_new, i_src = old_sweep_pass(fd, v, v_sub)
        delta = max(abs(a - b) for a, b in zip(v_new, v))
        v = v_new
        if delta < tol:
            return i_src, np.array(v), k + 1
    raise FeederError("feeder sweep did not converge")


def old_step_motors(fd, h, tol):
    """Every motor's state after the step; ``fd`` is left as it was."""
    out = []
    for mu in fd.motors:
        x = mu.state
        if mu.active:
            er, ei, s = mu.state.tolist()
            e, s = rk_component_step(
                lambda e, s, u, m=mu.motor: old_derivatives(m, e, s, u),
                complex(er, ei), s, complex(fd.v[mu.node]), h, tol=tol)
            x = np.array([e.real, e.imag, s])
        out.append(x)
    return out


def old_record(subsystems, channels):
    row = []
    for name, sub in subsystems.items():
        row += np.asarray(sub.output(), dtype=float).tolist()
        snap = sub.snapshot()
        row += [snap[ch] for ch in channels[name]]
    return np.array(row, dtype=float)


# -- seeded random states -----------------------------------------------------


def random_motor(rng):
    p = InductionMotorParams(
        rs=rng.uniform(1e-3, 0.1), xs=rng.uniform(0.01, 0.3),
        xm=rng.uniform(1.0, 10.0), rr=rng.uniform(5e-3, 0.1),
        xr=rng.uniform(0.01, 0.3), h_m=rng.uniform(0.1, 3.0),
        mva_scale=rng.uniform(0.01, 2.0))
    m = InductionMotor(p, OMEGA_S)
    m.tm0, m.s0 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.2)
    return m


def random_complex(rng, scale):
    return complex(*(scale * rng.standard_normal(2)))


def test_motor_kernels_on_random_states():
    rng = np.random.default_rng(2401)
    for _ in range(2000):
        m = random_motor(rng)
        e, v = random_complex(rng, 1.0), random_complex(rng, 1.0)
        s = rng.uniform(-0.5, 1.5)
        assert raw(*m.derivatives(e, s, v)) == raw(
            *old_derivatives(m, e, s, v))
        x = np.array([e.real, e.imag, s])
        want = raw(old_terminal_power(m, x, v))
        assert raw(m.terminal_power(x, v)) == want
        assert raw(m.terminal_power(x.tolist(), v)) == want
        assert m.mech_torque(s) == old_mech_torque(m, s)


def outcome(fn, *args):
    """The bytes of ``fn``'s result, or the arithmetic error it raises."""
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return raw(*out) if isinstance(out, tuple) else raw(out)


@pytest.mark.parametrize("e, s, v", [
    (0j, 1.0, 1 + 0j),                 # standstill, flux-free
    (-0.0 - 0.0j, 0.0, -0.0 + 1j),     # signed zeros
    (0.9 - 0.05j, 1e200, 1 + 0j),      # a slip past the float range
    (complex(math.nan, 0.0), 0.03, 1 + 0j),
    (0.9 - 0.05j, 0.03, complex(math.inf, 0.0)),
])
def test_motor_kernels_at_edges(e, s, v):
    m = random_motor(np.random.default_rng(7))
    x = [e.real, e.imag, s]
    assert outcome(m.derivatives, e, s, v) == outcome(
        old_derivatives, m, e, s, v)
    assert outcome(m.terminal_power, x, v) == outcome(
        old_terminal_power, m, x, v)


def tc1_feeders():
    subsystems, dsubs, buses = build_subsystems(load_scenario(fixture_path(
        "testcase1")))
    iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    return [fd for d in dsubs.values() for fd in d.feeders]


def radial_feeder():
    """Four branches, ZIP loads at nodes 2 and 4, a motor at node 3 and a
    switched-off one at node 4."""
    params = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03,
                                  xr=0.12, h_m=0.6, mva_scale=0.25)
    branches = [FeederBranch(0, 1, 0.004, 0.012),
                FeederBranch(1, 2, 0.006, 0.018),
                FeederBranch(1, 3, 0.005, 0.015),
                FeederBranch(3, 4, 0.008, 0.020)]
    zips = {2: ZipLoadParams(0.30, 0.10, 0.4, 0.3, 0.3),
            4: ZipLoadParams(0.25, 0.08, 0.2, 0.3, 0.5)}
    motors = [MotorUnit("m1", 3, InductionMotor(params, OMEGA_S), 0.20),
              MotorUnit("m2", 4, InductionMotor(params, OMEGA_S), 0.10,
                        active=False)]
    fd = DistributionFeeder(branches, zips, motors)
    fd.initialize(1.0 + 0.0j)
    # the switched-off motor keeps a state of its own
    motors[1].state = motors[1].equilibrium(1.0 + 0.0j)
    return fd


@pytest.mark.parametrize("which", ["testcase1", "radial"])
def test_node_currents_and_sweep_on_random_states(which):
    rng = np.random.default_rng(2402)
    feeders = tc1_feeders() if which == "testcase1" else [radial_feeder()]
    for fd in feeders:
        for _ in range(200):
            n = fd.n_nodes
            v = (fd.v * (1.0 + 0.05 * rng.standard_normal(n))
                 * np.exp(0.05j * rng.standard_normal(n)))
            states = [mu.state * (1.0 + 0.1 * rng.standard_normal(3))
                      for mu in fd.motors]
            vl = v.tolist()
            want = raw(*old_node_currents(fd, vl, states))
            assert raw(*fd.node_currents(vl, states)) == want
            assert raw(*fd.node_currents(
                vl, [x.tolist() for x in states])) == want
            assert raw(*fd.node_currents(vl)) == raw(
                *old_node_currents(fd, vl))
            # a sweep from the perturbed profile, at a moved substation
            for mu, x in zip(fd.motors, states):
                mu.state = x
            fd.v = v
            v_sub = v[0] * (1.0 + 0.02 * rng.standard_normal())
            i_src, v_end, passes = old_sweep(fd, v_sub)
            counted = count_passes(fd)
            assert raw(fd.sweep(v_sub)) == raw(i_src)
            assert fd.v.tobytes() == v_end.tobytes()
            assert counted() == passes


def count_passes(fd):
    """Count ``node_currents`` calls on ``fd`` from here on."""
    calls = [0]
    fresh = type(fd).node_currents

    def counted(v, states=None):
        calls[0] += 1
        return fresh(fd, v, states)

    fd.node_currents = counted
    return lambda: calls[0]


# -- every call across testcase1's motor start --------------------------------

# testcase1 with its motor start moved to t = 0.06 s, over 0.3 s
MOTOR_START = CouplingSchedule(
    0.006, 0.3, (Event(0.06, "D6", "connect_motor", {"name": "bus6_im2"}),))


@pytest.mark.parametrize("method", list(CouplingMethod))
def test_every_call_across_the_motor_start(monkeypatch, method):
    calls = {"sweep": 0, "step_motors": 0, "derivatives": 0,
             "terminal_power": 0}
    sweep = DistributionFeeder.sweep
    step_motors = DistributionFeeder.step_motors
    derivatives = InductionMotor.derivatives
    terminal_power = InductionMotor.terminal_power

    def checked_sweep(fd, v_sub, tol=1e-8):
        i_src, v_end, _ = old_sweep(fd, v_sub, tol)
        got = sweep(fd, v_sub, tol)
        assert raw(got) == raw(i_src) and fd.v.tobytes() == v_end.tobytes()
        calls["sweep"] += 1
        return got

    def checked_step_motors(fd, h, tol=1e-6):
        want = old_step_motors(fd, h, tol)
        step_motors(fd, h, tol)
        assert [mu.state.tobytes() for mu in fd.motors] == [
            x.tobytes() for x in want]
        calls["step_motors"] += 1

    def checked_derivatives(motor, e, s, v):
        got = derivatives(motor, e, s, v)
        assert raw(*got) == raw(*old_derivatives(motor, e, s, v))
        calls["derivatives"] += 1
        return got

    def checked_terminal_power(motor, x, v):
        got = terminal_power(motor, x, v)
        assert raw(got) == raw(old_terminal_power(motor, x, v))
        calls["terminal_power"] += 1
        return got

    monkeypatch.setattr(DistributionFeeder, "sweep", checked_sweep)
    monkeypatch.setattr(DistributionFeeder, "step_motors",
                        checked_step_motors)
    monkeypatch.setattr(InductionMotor, "derivatives", checked_derivatives)
    monkeypatch.setattr(InductionMotor, "terminal_power",
                        checked_terminal_power)

    scenario = load_scenario(fixture_path("testcase1"))
    subsystems, dsubs, buses = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    channels = {name: list(sub.snapshot())
                for name, sub in subsystems.items()}
    step = exchange_step(subsystems, method)
    rows = [old_record(subsystems, channels)]

    def recorded(h, switched):
        # march records right after the step, from the same state
        step(h, switched)
        rows.append(old_record(subsystems, channels))

    log = march(MOTOR_START, subsystems, recorded)
    assert log.failure is None and len(log.rows) == 51
    assert [r.tobytes() for r in log.rows] == [r.tobytes() for r in rows]
    # 50 steps of three sub-systems, each two sweeps of each feeder
    assert calls["sweep"] >= 300 and calls["step_motors"] == 150
    assert min(calls.values()) > 0


# -- the log ------------------------------------------------------------------


def test_channel_is_a_column_of_the_log_on_a_run_and_its_csv(tmp_path):
    scenario = load_scenario(fixture_path("testcase2"))
    scenario.method, scenario.h_macro = RunMethod.SERIES, 0.037
    log = run_scenario(scenario).log
    path = str(tmp_path / "run.csv")
    write_csv(path, log)
    for lg in (log, read_csv(path), TimeSeriesLog(columns=log.columns)):
        table = lg.as_array()
        for j, c in enumerate(lg.columns):
            got = lg.channel(c)
            assert got.dtype == float and got.flags.c_contiguous
            assert got.tobytes() == table[:, j].tobytes()
