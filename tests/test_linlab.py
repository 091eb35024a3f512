import collections
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotds import cosim, linlab
from cotds.cosim import CouplingSchedule, march
from cotds.linlab import (
    LinearCoupledParams,
    SchemeId,
    StateVec2,
    StepConfig,
    analytic_solution,
    build_step_matrix,
    find_stability_threshold,
    local_truncation_error,
    make_linear_pair,
    simulate_linear,
    spectral_radius,
    stability_sweep,
    system_matrix,
)

P1 = LinearCoupledParams(-1.0, -10.0, 2.0, 2.0)
P2 = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)


def one_step(p, cfg, s, scheme):
    """One macro step of ``simulate_linear`` from state s."""
    traj = simulate_linear(p, s, cfg.h_macro, cfg.n_micro, cfg.h_macro, scheme)
    assert traj.times.tolist() == [0.0, cfg.h_macro] and not traj.diverged
    return traj.states[-1]


def expm_taylor(a, t):
    """Independent oracle: scaling-and-squaring of the Taylor series."""
    a = np.asarray(a, dtype=float) * t
    k = max(0, int(np.ceil(np.log2(max(np.abs(a).max(), 1e-30)))) + 1)
    b = a / 2.0**k
    term = np.eye(2)
    total = np.eye(2)
    for j in range(1, 25):
        term = term @ b / j
        total = total + term
    for _ in range(k):
        total = total @ total
    return total


def char_poly_radius(m):
    """Independent oracle: roots of the characteristic polynomial."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    roots = np.roots([1.0, -tr, det])
    return float(np.max(np.abs(roots)))


params_strategy = st.builds(
    LinearCoupledParams,
    lambda_a=st.floats(-20, -0.05),
    lambda_b=st.floats(-20, -0.05),
    k_a=st.floats(0.05, 10),
    k_b=st.floats(0.05, 10),
)


class TestTypes:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            LinearCoupledParams(1.0, -1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            LinearCoupledParams(-1.0, -1.0, -2.0, 2.0)
        with pytest.raises(ValueError):
            StepConfig(0.0, 10)
        with pytest.raises(ValueError):
            StepConfig(0.1, 0)
        with pytest.raises(ValueError):
            StateVec2(float("nan"), 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_macro_step_rejected(self, h):
        # a non-finite H would give an all-nan step matrix
        with pytest.raises(ValueError, match="h_macro"):
            StepConfig(h, 10)

    def test_micro_step(self):
        assert StepConfig(0.5, 100).h_micro == pytest.approx(0.005)


class TestAnalyticSolution:
    def test_identity_at_t0(self):
        assert analytic_solution(P1, StateVec2(1, 1), 0.0) == StateVec2(1, 1)

    def test_decay_to_origin(self):
        norms = [
            np.linalg.norm(analytic_solution(P2, StateVec2(1, 0), t).as_array())
            for t in (2.0, 5.0, 10.0, 20.0)
        ]
        assert norms[-1] < 1e-6
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_against_taylor_expm_oracle(self):
        # frozen from the Taylor/scaling-squaring oracle above
        ref = expm_taylor(system_matrix(P1), 0.5) @ np.array([1.0, 1.0])
        got = analytic_solution(P1, StateVec2(1, 1), 0.5).as_array()
        assert np.max(np.abs(got - ref)) <= 1e-10

    @given(params_strategy, st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_everywhere(self, p, t):
        ref = expm_taylor(system_matrix(p), t) @ np.array([0.3, -0.7])
        got = analytic_solution(p, StateVec2(0.3, -0.7), t).as_array()
        assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            analytic_solution(P1, StateVec2(1, 1), -0.1)


class TestTotalTrapezoidal:
    def test_decoupled_limit(self):
        p = LinearCoupledParams(-1.0, -2.0, 1e-14, 1e-14)
        h = 0.4
        x_a, x_b = one_step(p, StepConfig(h), StateVec2(1.0, 1.0),
                            SchemeId.TOTAL_TRAPEZOIDAL)
        assert x_a == pytest.approx((1 - 0.5 * h) / (1 + 0.5 * h), abs=1e-10)
        assert x_b == pytest.approx((1 - h) / (1 + h), abs=1e-10)

    def test_matches_matrix(self):
        m = build_step_matrix(P2, StepConfig(0.75), SchemeId.TOTAL_TRAPEZOIDAL)
        got = one_step(P2, StepConfig(0.75), StateVec2(1, 0),
                       SchemeId.TOTAL_TRAPEZOIDAL)
        assert np.max(np.abs(got - m @ [1, 0])) <= 1e-12

    def test_tracks_analytic_at_small_step(self):
        traj = simulate_linear(P2, StateVec2(1, 1), 0.01, 1, 5.0,
                               SchemeId.TOTAL_TRAPEZOIDAL)
        err = max(float(np.max(np.abs(
            s - analytic_solution(P2, StateVec2(1, 1), float(t)).as_array())))
            for t, s in zip(traj.times, traj.states))
        assert err <= 1e-3


class TestCosimSteppers:
    def test_zero_coupling_limit(self):
        p = LinearCoupledParams(-1.0, -2.0, 1e-14, 1e-14)
        cfg = StepConfig(0.5, 10)
        par = one_step(p, cfg, StateVec2(1, 1), SchemeId.COSIM_PARALLEL)
        ser = one_step(p, cfg, StateVec2(1, 1), SchemeId.COSIM_SERIES)
        assert np.max(np.abs(par - ser)) <= 1e-12
        # trapezoidal on A, Euler^n on B
        assert par[0] == pytest.approx(0.75 / 1.25, abs=1e-10)
        assert par[1] == pytest.approx((1 - 0.1) ** 10, abs=1e-10)

    @pytest.mark.parametrize("scheme", [SchemeId.COSIM_PARALLEL, SchemeId.COSIM_SERIES])
    def test_matrix_equivalence_random_states(self, scheme):
        rng = np.random.default_rng(7)
        cfg = StepConfig(0.3, 25)
        m = build_step_matrix(P1, cfg, scheme)
        for _ in range(100):
            s = rng.normal(size=2)
            got = one_step(P1, cfg, StateVec2(*s), scheme)
            assert np.max(np.abs(got - m @ s)) <= 1e-10

    def test_parallel_oscillates_at_large_step(self):
        # complex step-matrix pair with |lambda| near 1 rotates the state:
        # frequent sign reversals and an envelope that barely decays
        traj = simulate_linear(P2, StateVec2(1, 1), 0.75, 100, 40.0,
                               SchemeId.COSIM_PARALLEL)
        xa = traj.states[:, 0]
        reversals = np.mean(np.sign(xa[:-1]) * np.sign(xa[1:]) < 0)
        assert reversals > 0.3
        assert np.max(np.abs(xa[26:])) > 0.3 * np.max(np.abs(xa[:26]))

    def test_series_converges_at_large_step(self):
        traj = simulate_linear(P2, StateVec2(1, 1), 0.75, 100, 40.0,
                               SchemeId.COSIM_SERIES)
        assert not traj.diverged
        ref = analytic_solution(P2, StateVec2(1, 1), 40.0).as_array()
        assert np.max(np.abs(traj.states[-1] - ref)) <= 1e-3

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
           st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a1, a2, b1, b2, alpha, beta):
        cfg = StepConfig(0.2, 10)
        for scheme in SchemeId:
            s1 = np.array([a1, b1])
            s2 = np.array([a2, b2])
            lhs = one_step(P2, cfg, StateVec2(*(alpha * s1 + beta * s2)),
                           scheme)
            rhs = (alpha * one_step(P2, cfg, StateVec2(*s1), scheme)
                   + beta * one_step(P2, cfg, StateVec2(*s2), scheme))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_equilibrium_fixed_point(self):
        cfg = StepConfig(0.5, 20)
        for scheme in SchemeId:
            s = one_step(P1, cfg, StateVec2(0.0, 0.0), scheme)
            assert s[0] == 0.0 and s[1] == 0.0


class TestStepMatrices:
    def test_total_zero_radius_case(self):
        p = LinearCoupledParams(-1.0, -1.0, 1e-14, 1e-14)
        m = build_step_matrix(p, StepConfig(2.0), SchemeId.TOTAL_TRAPEZOIDAL)
        assert spectral_radius(m) <= 1e-12

    def test_total_radius_h075(self):
        # hand-checked: det(M) = 0.71875/2.96875, complex pair
        m = build_step_matrix(P2, StepConfig(0.75), SchemeId.TOTAL_TRAPEZOIDAL)
        assert spectral_radius(m) == pytest.approx(math.sqrt(0.71875 / 2.96875),
                                                   abs=1e-12)
        assert char_poly_radius(m) == pytest.approx(spectral_radius(m), abs=1e-10)

    @given(params_strategy, st.floats(0.01, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_total_a_stable(self, p, h):
        m = build_step_matrix(p, StepConfig(h), SchemeId.TOTAL_TRAPEZOIDAL)
        assert spectral_radius(m) < 1.0

    @pytest.mark.parametrize("scheme", [SchemeId.COSIM_PARALLEL,
                                        SchemeId.COSIM_SERIES])
    def test_column_extraction(self, scheme):
        cfg = StepConfig(0.75, 100)
        m = build_step_matrix(P2, cfg, scheme)
        e1 = one_step(P2, cfg, StateVec2(1, 0), scheme)
        e2 = one_step(P2, cfg, StateVec2(0, 1), scheme)
        assert np.max(np.abs(np.column_stack([e1, e2]) - m)) <= 1e-12

    def test_parallel_radius_near_unity(self):
        m = build_step_matrix(P2, StepConfig(0.75, 100),
                              SchemeId.COSIM_PARALLEL)
        rho = spectral_radius(m)
        assert rho == pytest.approx(0.97, abs=0.01)
        assert char_poly_radius(m) == pytest.approx(rho, abs=1e-10)

    def test_parallel_radius_stable_case(self):
        rho = spectral_radius(build_step_matrix(
            P1, StepConfig(0.1, 100), SchemeId.COSIM_PARALLEL))
        assert rho < 1.0

    def test_series_radius_well_below_unity(self):
        rho = spectral_radius(build_step_matrix(
            P2, StepConfig(0.75, 100), SchemeId.COSIM_SERIES))
        assert rho == pytest.approx(0.32, abs=0.01)

    def test_series_beats_parallel_on_strongly_coupled_set(self):
        # ordering holds pointwise for (-1,-2,2,2); for (-1,-10,2,2) the
        # parallel schedule is actually the more stable one at small H,
        # so the claim is parameter-dependent (see acceptance suite)
        for h in np.linspace(0.05, 1.15, 23):
            cfg = StepConfig(h, 100)
            rho_ser, rho_par = (
                spectral_radius(build_step_matrix(P2, cfg, scheme))
                for scheme in (SchemeId.COSIM_SERIES, SchemeId.COSIM_PARALLEL))
            assert rho_ser <= rho_par + 1e-12
        assert (find_stability_threshold(P2, SchemeId.COSIM_SERIES)
                > 1.2 * find_stability_threshold(P2, SchemeId.COSIM_PARALLEL))

    def test_micro_limit_is_exponential_integrator(self):
        # B-block entries approach the exact e^{lambda_b H} factors as n grows
        h = 0.5
        exact_g = math.exp(P2.lambda_b * h)
        exact_w = (P2.k_b / P2.lambda_b) * (exact_g - 1.0)
        errs = []
        for n in (10, 100, 1000, 10000):
            m = build_step_matrix(P2, StepConfig(h, n),
                                  SchemeId.COSIM_PARALLEL)
            errs.append(abs(m[1, 1] - exact_g) + abs(m[1, 0] - exact_w))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(r > 8 for r in ratios)  # O(1/n)


def dense_solve_step_matrix(p, cfg, scheme):
    """(lhs, M): the step matrix by a dense solve of lhs @ M = rhs, the
    construction the closed form replaced, kept as its oracle."""
    h = cfg.h_macro
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        a = system_matrix(p)
        lhs = np.eye(2) - 0.5 * h * a
        rhs = np.eye(2) + 0.5 * h * a
    else:
        g = (1.0 + cfg.h_micro * p.lambda_b) ** cfg.n_micro
        w = (p.k_b / p.lambda_b) * (g - 1.0)
        a_row = [1.0 + 0.5 * p.lambda_a * h, -p.k_a * h]
        lhs = np.array([[1.0 - 0.5 * p.lambda_a * h, 0.0],
                        [-w if scheme is SchemeId.COSIM_SERIES else 0.0, 1.0]])
        rhs = np.array([a_row, [0.0, g] if scheme is SchemeId.COSIM_SERIES
                        else [w, g]])
    return lhs, np.linalg.solve(lhs, rhs)


# Both sides solve lhs @ M = rhs for the same floating-point lhs and rhs
# (the closed form builds them by the same expressions), so they differ
# only by their solves' rounding, taken column by column (x, r) with unit
# roundoff u = 2^-53 and kappa = cond_inf(lhs), to first order:
# - LU with partial pivoting (LAPACK's dgesv): (lhs + E) x' = r with
#   |E| <= gamma_k |L'||U'| (Higham, Accuracy and Stability of Numerical
#   Algorithms, Thm 9.4).  For n = 2, k = 3n = 6, plus 2 for the
#   reciprocal pivots LAPACK multiplies by, so k = 8; and the pivot row of
#   |L'||U'| sums to at most ||lhs||, the other row to at most 3 ||lhs||
#   (|multiplier| <= 1).  So ||x' - x|| <= 8 u * 3 * kappa * ||x||.
# - Cramer's rule (the trapezoidal scheme): each numerator and det carry
#   gamma_2 relative to the sum of their terms' magnitudes, the quotient u,
#   so ||x' - x|| <= (2 + 2 + 1) u * kappa * ||x||.  The triangular
#   substitution of the co-simulation schemes does no worse.
SOLVE_BOUND = 8 * 3 + 5


def oracle_draws(count, seed=0):
    """Seeded (p, StepConfig) draws: rates and gains log-uniform over
    [0.05, 20], H log-uniform over [1e-3, 20], n among 1..1000."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        la, lb, ka, kb = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 4))
        h = float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
        n = int(rng.choice([1, 2, 3, 10, 100, 1000]))
        yield (LinearCoupledParams(-float(la), -float(lb), float(ka),
                                   float(kb)), StepConfig(h, n))


class TestClosedFormStepMatrix:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_matches_dense_solve(self, scheme):
        for p, cfg in oracle_draws(400):
            lhs, ref = dense_solve_step_matrix(p, cfg, scheme)
            got = build_step_matrix(p, cfg, scheme)
            kappa = np.linalg.cond(lhs, np.inf)
            for j in range(2):
                bound = (SOLVE_BOUND * 2.0 ** -53 * kappa
                         * np.max(np.abs(ref[:, j])))
                err = np.max(np.abs(got[:, j] - ref[:, j]))
                assert err <= bound, (p, cfg, j, err, bound)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_radius_of_entries_is_radius_of_matrix(self, scheme):
        for p, cfg in oracle_draws(400, seed=2):
            assert linlab._radius(p, scheme, cfg.n_micro, cfg.h_macro) == \
                spectral_radius(build_step_matrix(p, cfg, scheme))

    def test_total_rejects_non_positive_h(self):
        for h in (0.0, -0.5):
            with pytest.raises(ValueError, match="h_macro must be positive"):
                build_step_matrix(P1, StepConfig(h), SchemeId.TOTAL_TRAPEZOIDAL)

    def test_overflowing_growth_factor_is_numeric(self):
        # (1 + h*lambda_b)^n overflows the same way on a numpy grid and a
        # list of Python floats
        for grid in (np.array([1e6]), [1e6]):
            with pytest.raises(OverflowError, match="growth factor"):
                stability_sweep(P2, SchemeId.COSIM_PARALLEL, 100, grid)

    def test_threshold_and_sweep_call_no_linalg(self, monkeypatch):
        # every numpy.linalg function counted, as the kept Newton's test
        # counts its solves; the total scheme's simulation shows the
        # counters see linlab's calls
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, counting(fn))
        for scheme in SchemeId:
            find_stability_threshold(P2, scheme, h_max=20.0)
            stability_sweep(P2, scheme, 100, np.linspace(0.01, 2.0, 50))
        assert calls == []
        # one solve per run, not per step
        for t_end in (0.3, 3.0):
            simulate_linear(P2, StateVec2(1, 1), 0.1, 100, t_end,
                            SchemeId.TOTAL_TRAPEZOIDAL)
            assert calls == ["solve"]
            calls.clear()

    def test_threshold_and_sweep_build_no_step_config(self, monkeypatch):
        # their H is checked once, not by a StepConfig per radius; the
        # simulation shows the counter sees linlab's StepConfigs
        built = []
        post_init = StepConfig.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(StepConfig, "__post_init__", counted)
        for scheme in SchemeId:
            find_stability_threshold(P2, scheme, h_max=20.0)
            stability_sweep(P2, scheme, 100, np.linspace(0.01, 2.0, 600))
        assert built == []
        simulate_linear(P2, StateVec2(1, 1), 0.1, 100, 0.3,
                        SchemeId.COSIM_SERIES)
        assert [(c.h_macro, c.n_micro) for c in built] == [(0.1, 100)]

    def test_sweep_evaluates_the_entries_once(self, monkeypatch):
        # once per sweep over the whole grid, not once per point; the
        # threshold search shows the counter sees every evaluation
        calls = []
        entries = linlab._step_entries

        def counted(*args):
            calls.append(args)
            return entries(*args)

        monkeypatch.setattr(linlab, "_step_entries", counted)
        grid = np.linspace(0.01, 2.0, 600)
        for scheme in SchemeId:
            calls.clear()
            out = stability_sweep(P2, scheme, 100, grid)
            assert len(out) == 600 and len(calls) == 1
            calls.clear()
            find_stability_threshold(P2, scheme, h_max=20.0)
            assert len(calls) > 10

    def test_truncation_builds_no_run(self, monkeypatch):
        # one exchange step on a fresh pair: no schedule, no log and no
        # initial interface check, which the pair meets by construction;
        # the simulation shows the counters see linlab's runs
        made = {"schedule": 0, "log": 0, "mismatch": 0}
        post_init = CouplingSchedule.__post_init__
        log_init = cosim.TimeSeriesLog.__init__
        mismatch = cosim.interface_mismatch

        def schedule(self):
            made["schedule"] += 1
            post_init(self)

        def log(self, *args, **kwargs):
            made["log"] += 1
            log_init(self, *args, **kwargs)

        def gaps(*args):
            made["mismatch"] += 1
            return mismatch(*args)

        monkeypatch.setattr(CouplingSchedule, "__post_init__", schedule)
        monkeypatch.setattr(cosim.TimeSeriesLog, "__init__", log)
        monkeypatch.setattr(cosim, "interface_mismatch", gaps)
        for scheme in SchemeId:
            for x0 in (StateVec2(1, 1), StateVec2(0.3, -1.7)):
                local_truncation_error(P2, x0, 0.1, scheme)
        assert made == {"schedule": 0, "log": 0, "mismatch": 0}
        simulate_linear(P2, StateVec2(1, 1), 0.1, 100, 0.3,
                        SchemeId.COSIM_SERIES)
        assert made == {"schedule": 1, "log": 1, "mismatch": 1}


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == 1.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.8])) == pytest.approx(0.8)

    def test_complex_pair(self):
        m = np.array([[0.45455, -1.0909], [0.7769, 0.2231]])
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert spectral_radius(m) == pytest.approx(math.sqrt(det), abs=1e-12)
        assert spectral_radius(m) == pytest.approx(0.974, abs=2e-3)
        assert char_poly_radius(m) == pytest.approx(spectral_radius(m), abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.inf, 0], [0, 1.0]]))
        for bad in (math.nan, -math.inf):
            for k in range(4):
                m = np.eye(2)
                m.flat[k] = bad
                with pytest.raises(ValueError, match="finite 2x2"):
                    spectral_radius(m)

    def test_rejects_wrong_shape(self):
        for m in (np.eye(3), np.ones(4), [[1.0, 0.0]]):
            with pytest.raises(ValueError, match="finite 2x2"):
                spectral_radius(m)


class TestTruncationError:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_vanishes_with_step(self, scheme):
        hs = [10.0 ** (-k) for k in range(1, 6)]
        norms = [
            np.linalg.norm(
                local_truncation_error(P1, StateVec2(1, 1), h, scheme).as_array())
            for h in hs
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-4

    def test_trapezoidal_second_order(self):
        hs = np.logspace(-4, -2, 5)
        norms = [
            np.linalg.norm(local_truncation_error(
                P2, StateVec2(1, 1), h, SchemeId.TOTAL_TRAPEZOIDAL).as_array())
            for h in hs
        ]
        slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_zero_at_equilibrium(self, scheme):
        tau = local_truncation_error(P1, StateVec2(0, 0), 0.1, scheme)
        assert tau.x_a == 0.0 and tau.x_b == 0.0


class TestSweepAndSimulate:
    def test_empty_grid(self):
        assert stability_sweep(P1, SchemeId.COSIM_SERIES, 100, []) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_grid_checked_before_any_radius(self, bad, monkeypatch):
        # the sweep evaluates the step entries, which take any H; the
        # valid grid shows the counter sees the sweep's evaluation
        evaluated = []
        entries = linlab._step_entries
        monkeypatch.setattr(linlab, "_step_entries",
                            lambda *args: evaluated.append(args)
                            or entries(*args))
        for grid in ([0.1, 0.5, bad, 1.0], np.array([0.1, 0.5, bad, 1.0])):
            with pytest.raises(ValueError, match=f"got {bad!r}$"):
                stability_sweep(P2, SchemeId.COSIM_PARALLEL, 100, grid)
        assert evaluated == []
        stability_sweep(P2, SchemeId.COSIM_PARALLEL, 100, [0.1, 0.5, 1.0])
        assert len(evaluated) == 1

    def test_sweep_checks_n_micro(self):
        with pytest.raises(ValueError, match="n_micro"):
            stability_sweep(P2, SchemeId.COSIM_SERIES, 0, [0.5])
        with pytest.raises(ValueError, match="n_micro"):
            find_stability_threshold(P2, SchemeId.COSIM_SERIES, n_micro=0)

    def test_sweep_order_and_content(self):
        grid = [0.1, 0.5, 1.0]
        out = stability_sweep(P2, SchemeId.TOTAL_TRAPEZOIDAL, 100, grid)
        assert [h for h, _ in out] == grid
        assert all(r < 1 for _, r in out)

    def test_parallel_threshold_bracket(self):
        hstar = find_stability_threshold(P2, SchemeId.COSIM_PARALLEL)
        assert 0.75 < hstar < 1.0
        cfg_lo = StepConfig(hstar * 0.999, 100)
        cfg_hi = StepConfig(hstar * 1.001, 100)
        lo, hi = (build_step_matrix(P2, cfg, SchemeId.COSIM_PARALLEL)
                  for cfg in (cfg_lo, cfg_hi))
        assert spectral_radius(lo) < 1.0
        assert spectral_radius(hi) > 1.0

    def test_t_end_zero(self):
        traj = simulate_linear(P1, StateVec2(1, 1), 0.1, 10, 0.0,
                               SchemeId.COSIM_SERIES)
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert np.all(traj.states[0] == [1.0, 1.0])
        assert not traj.diverged

    def test_divergence_is_data(self):
        # well beyond the parallel stability threshold, long enough to overflow
        traj = simulate_linear(P2, StateVec2(1, 1), 5.0, 100, 20000.0,
                               SchemeId.COSIM_PARALLEL)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))

    def test_spectral_radius_predicts_decay(self):
        for scheme, h in [(SchemeId.COSIM_PARALLEL, 0.5),
                          (SchemeId.COSIM_SERIES, 0.75),
                          (SchemeId.TOTAL_TRAPEZOIDAL, 0.75)]:
            rho = spectral_radius(build_step_matrix(P2, StepConfig(h, 100), scheme))
            traj = simulate_linear(P2, StateVec2(1, 1), h, 100, 300 * h, scheme)
            norms = np.linalg.norm(traj.states, axis=1)
            if rho < 1 - 1e-6:
                assert norms[-1] < norms[0] * 1e-2
            elif rho > 1 + 1e-6:
                assert norms[-1] > norms[0]


U = 2.0 ** -53  # unit roundoff


def old_total_trapezoidal_step(p, pair):
    """The total scheme's step as it was, a 2x2 solve per step, kept as
    the oracle of the one-solve-per-run stepper."""
    a_half, b_half = pair["A"], pair["B"]
    a = system_matrix(p)

    def step(h, _switched):
        s = np.array([a_half.x, b_half.x])
        lhs = np.eye(2) - 0.5 * h * a
        a_half.x, b_half.x = np.linalg.solve(lhs, s + 0.5 * h * (a @ s))

    return step


def inf_norm(m):
    return float(np.max(np.sum(np.abs(m), axis=1)))


# How far step k + 1 of ``simulate_linear`` may sit from M @ x_k, M the
# step matrix.  Both sides evaluate the same real expansion of M @ x_k
# from the same floats (the parameters, H and the Euler factor
# g = (1 + (H/n)*lambda_b)^n, one expression on both sides), in other
# orders.  To first order each term of the expansion carries k*u
# relative error, k the roundings on its path; counting the stepper's
# and the matrix's together:
# - A row, m00*x_a + m01*x_b (m00 = (1 + H/2*lambda_a)/d,
#   m01 = -k_a*H/d, d = 1 - H/2*lambda_a): 7 + 7 on the x_a term,
#   6 + 6 on the x_b term;
# - parallel B row, w*x_a + g*x_b (w = (k_b/lambda_b)*(g - 1)): 4 + 4
#   and 2 + 2;
# - series B row, w*(m00*x_a + m01*x_b) + g*x_b: the stepper's A row
#   (7 or 6) and 4 more, the matrix's 10: at most 21 on a w term, 5 on g.
# So |step - M x| <= COSIM_ROUNDINGS*u*(sum of the terms' magnitudes).
# - total trapezoidal: the stepper's M (an LU solve) and the step matrix
#   (Cramer's rule) differ in column j by at most
#   SOLVE_BOUND*u*kappa*max|M[:, j]| (above); each side's products add 2
#   roundings per term.
COSIM_ROUNDINGS = 24


def stepper_bound(p, cfg, scheme, x):
    """Per step (row of x) and component, the bound above."""
    m = build_step_matrix(p, cfg, scheme)
    ax = np.abs(x)
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        lhs = np.eye(2) - 0.5 * cfg.h_macro * system_matrix(p)
        kappa = np.linalg.cond(lhs, np.inf)
        col = np.max(np.abs(m), axis=0)
        solve = SOLVE_BOUND * kappa * (ax @ col)
        return U * (solve[:, None] + 4 * ax @ np.abs(m).T)
    g, w = linlab._euler_map(p, cfg.h_macro, cfg.n_micro)
    mag_a = ax @ np.abs(m[0])
    if scheme is SchemeId.COSIM_PARALLEL:
        mag_b = abs(w) * ax[:, 0] + abs(g) * ax[:, 1]
    else:
        mag_b = abs(w) * mag_a + abs(g) * ax[:, 1]
    return COSIM_ROUNDINGS * U * np.stack([mag_a, mag_b], axis=1)


def old_total_bound(p, h, states):
    """How far the old and the new total stepper's trajectories may
    drift apart.

    From the same x, the steps differ by at most c*u*|x|_inf:
    - the new M's columns carry SOLVE_BOUND's LU part, 24*u*kappa*|M|;
      summed over the two columns, 48*u*kappa*|M|*|x|;
    - the old step's LU solve carries 24*u*kappa*|M x|;
    - its right-hand side x + H/2*(A x), 4 roundings per term, carries
      4*u*|lhs^-1|*(1 + |H/2*A|)*|x|;
    - the new step's products carry 2*u*|M|*|x|.
    A difference made at step k reaches step N through M^(N-k-1), so
    the bound at N is the sum over k of |M^(N-k-1)|*c*u*|x_k|.
    """
    a = system_matrix(p)
    lhs = np.eye(2) - 0.5 * h * a
    m = np.linalg.solve(lhs, np.eye(2) + 0.5 * h * a)
    kappa = np.linalg.cond(lhs, np.inf)
    c = ((72 * kappa + 2) * inf_norm(m)
         + 4 * inf_norm(np.linalg.inv(lhs)) * (1 + inf_norm(0.5 * h * a)))
    powers = [np.eye(2)]
    for _ in range(len(states) - 2):
        powers.append(powers[-1] @ m)
    spread = np.array([inf_norm(pk) for pk in powers])
    local = c * U * np.max(np.abs(states[:-1]), axis=1)
    return np.concatenate([[0.0], np.convolve(spread, local)[:len(local)]])


class TestMarchedStepper:
    """200 marched steps against the step matrix, as the benchmark's
    linlab check does, on the acceptance suite's P_STIFF (P1) and
    P_MILD (P2) at half the smaller co-simulation threshold."""

    STEPS = 200

    def run(self, p, scheme):
        h = 0.5 * min(find_stability_threshold(p, SchemeId.COSIM_PARALLEL),
                      find_stability_threshold(p, SchemeId.COSIM_SERIES))
        traj = simulate_linear(p, StateVec2(1, 1), h, 100, self.STEPS * h,
                               scheme)
        assert not traj.diverged and len(traj.times) == self.STEPS + 1
        return StepConfig(h, 100), traj.states

    @pytest.mark.parametrize("scheme", list(SchemeId))
    @pytest.mark.parametrize("p", [P1, P2])
    def test_each_step_is_the_step_matrix(self, p, scheme):
        cfg, states = self.run(p, scheme)
        m = build_step_matrix(p, cfg, scheme)
        dev = np.abs(states[1:] - states[:-1] @ m.T)
        bound = stepper_bound(p, cfg, scheme, states[:-1])
        assert np.all(dev <= bound), float(np.max(dev / bound))
        # the other schemes' matrices do not pass
        for other in set(SchemeId) - {scheme}:
            m = build_step_matrix(p, cfg, other)
            assert np.any(np.abs(states[1:] - states[:-1] @ m.T) > bound)

    @pytest.mark.parametrize("p", [P1, P2])
    def test_total_matches_per_step_solve(self, p):
        cfg, states = self.run(p, SchemeId.TOTAL_TRAPEZOIDAL)
        pair = make_linear_pair(p, StateVec2(1, 1), cfg.n_micro)
        log = march(CouplingSchedule(cfg.h_macro, self.STEPS * cfg.h_macro),
                    pair, old_total_trapezoidal_step(p, pair))
        old = log.as_array()[:, [log.columns.index("A.x"),
                                 log.columns.index("B.x")]]
        dev = np.max(np.abs(states - old), axis=1)
        assert np.all(dev <= old_total_bound(p, cfg.h_macro, old))


def scan_threshold(p: LinearCoupledParams, scheme: SchemeId,
                   n_micro: int = 100, h_max: float = 50.0,
                   tol: float = 1e-10) -> float:
    """Smallest H where the spectral radius crosses 1, by scan + bisection.

    The threshold search that the doubling bracket replaced, kept as its
    oracle: it evaluates the radius at 2000 evenly spaced H.
    """
    rho = functools.partial(linlab._radius, p, scheme, n_micro)
    grid = np.linspace(h_max / 2000.0, h_max, 2000)
    lo = grid[0]
    if rho(lo) >= 1.0:
        return lo
    for h in grid[1:]:
        if rho(h) >= 1.0:
            hi = h
            break
        lo = h
    else:
        return h_max
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if rho(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bench_box_draws(count, seed=0):
    """Latin-hypercube draws of the decay rates and coupling gains over
    [0.5, 5]^4: each parameter takes one value in each of ``count``
    equal strata."""
    rng = np.random.default_rng(seed)
    strata = np.array([rng.permutation(count) for _ in range(4)]).T
    u = (strata + rng.uniform(size=strata.shape)) / count
    return [LinearCoupledParams(-float(la), -float(lb), float(ka), float(kb))
            for la, lb, ka, kb in 0.5 + 4.5 * u]


# Once the B half's Euler factor 1 + (H/n)*lambda_b is negative
# (H > n/|lambda_b| = 23.5), the parallel radius of this draw rises
# above 1 (by at most about 3e-5) on about [44.36, 44.97], falls below it,
# and crosses 1 again at the Euler limit 2n/|lambda_b| = 47.05.  The
# doubling bracket [25, 50] holds three crossings and its bisection finds
# the last; the scan's 0.025 spacing finds the window.
P_EULER_WINDOW = LinearCoupledParams(-3.397430389648027, -4.25055915317289,
                                     3.635094230290633, 2.0127088174144214)


def search_bound(h_max, tol):
    """Radius evaluations of one search: rho(h_lo), at most
    ceil(log2 2000) doublings from h_lo = h_max/2000 to h_max, and the
    halvings that take a bracket of width at most h_max/2 (hi <= 2 lo and
    hi <= h_max) to tol."""
    return (1 + math.ceil(math.log2(2000))
            + math.ceil(math.log2((h_max / 2) / tol)))


class TestThresholdSearch:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts ``linlab._radius`` calls; reset it between searches."""
        count = [0]
        radius = linlab._radius

        def counted(*args):
            count[0] += 1
            return radius(*args)

        monkeypatch.setattr(linlab, "_radius", counted)
        return count

    def assert_crossing(self, p, scheme, h, h_max):
        def rho(x):
            return spectral_radius(build_step_matrix(p, StepConfig(x), scheme))

        if h >= h_max:
            assert rho(h_max) < 1.0, (p, scheme)
        else:
            below, above = rho(h * (1 - 1e-6)), rho(h * (1 + 1e-6))
            assert below < 1.0 <= above, (p, scheme, h)

    def check(self, p, scheme, h_max, calls):
        want = scan_threshold(p, scheme, h_max=h_max)
        calls[0] = 0
        got = find_stability_threshold(p, scheme, h_max=h_max)
        assert calls[0] <= search_bound(h_max, 1e-10), (p, scheme, calls[0])
        assert abs(got - want) <= 1e-10 * max(1.0, got), (p, scheme, got, want)
        self.assert_crossing(p, scheme, got, h_max)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_matches_scan_on_bench_box(self, scheme, calls):
        for p in bench_box_draws(200):
            self.check(p, scheme, 20.0, calls)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_matches_scan_at_default_h_max(self, scheme, calls):
        # P1 and P2 are the acceptance suite's P_STIFF and P_MILD
        for p in (P1, P2):
            self.check(p, scheme, 50.0, calls)

    def test_euler_window_is_stepped_over(self, calls):
        scheme = SchemeId.COSIM_PARALLEL
        got = find_stability_threshold(P_EULER_WINDOW, scheme)
        assert calls[0] <= search_bound(50.0, 1e-10)
        euler_limit = 2 * 100 / abs(P_EULER_WINDOW.lambda_b)
        assert got == pytest.approx(euler_limit, rel=1e-9)
        self.assert_crossing(P_EULER_WINDOW, scheme, got, 50.0)
        window = scan_threshold(P_EULER_WINDOW, scheme)
        assert window == pytest.approx(44.359, abs=1e-3)
        self.assert_crossing(P_EULER_WINDOW, scheme, window, 50.0)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tol_below_float_spacing_ends(self, tol, calls):
        # a float bracket with hi <= 2 lo holds fewer than 2^53 floats, and
        # each halving halves that count (one more for the midpoint's
        # rounding) until the midpoint rounds onto an end
        for scheme in (SchemeId.COSIM_PARALLEL, SchemeId.COSIM_SERIES):
            calls[0] = 0
            got = find_stability_threshold(P2, scheme, tol=tol)
            assert calls[0] <= 1 + math.ceil(math.log2(2000)) + 54
            assert got == pytest.approx(find_stability_threshold(P2, scheme),
                                        rel=1e-10)
            self.assert_crossing(P2, scheme, got, 50.0)

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-10}, {"tol": math.inf},
        {"h_max": math.nan}, {"h_max": 0.0}, {"h_max": -50.0},
        {"h_max": math.inf},
    ])
    def test_rejects_bad_tol_and_h_max(self, kwargs):
        with pytest.raises(ValueError):
            find_stability_threshold(P2, SchemeId.COSIM_PARALLEL, **kwargs)


# -- the one-pass sweep and the one-step truncation error --------------------

# the benchmark's linlab-map grids
SWEEP_GRID = np.linspace(0.01, 2.0, 200)
TRUNC_GRID = np.geomspace(0.005, 0.16, 6)


def bits(xs):
    """The float64 bit patterns of xs, to compare floats bit for bit."""
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


def point_radii(p, scheme, n, grid):
    """The sweep as it was: one ``_radius`` per grid point."""
    return [linlab._radius(p, scheme, n, float(h)) for h in grid]


def swept_radii(p, scheme, n, grid):
    return [rho for _, rho in stability_sweep(p, scheme, n, grid)]


def old_local_truncation_error(p, x0, h_macro, scheme, n_micro=100):
    """The truncation error as it was, one macro step of
    ``simulate_linear``, kept as the oracle of the one exchange step."""
    traj = simulate_linear(p, x0, h_macro, n_micro, h_macro, scheme)
    if traj.diverged:
        raise OverflowError("the scheme's step is non-finite at this H")
    true = analytic_solution(p, x0, h_macro).as_array()
    return StateVec2.from_array((true - traj.states[-1]) / h_macro)


def outcome(truncation, *args):
    """The error's bits, or the class and message of what it raised."""
    try:
        tau = truncation(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return bits([tau.x_a, tau.x_b])


class TestOnePassSweep:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_bit_identical_to_radius_on_bench_box(self, scheme):
        for p in bench_box_draws(200, seed=3):
            assert (bits(swept_radii(p, scheme, 100, SWEEP_GRID))
                    == bits(point_radii(p, scheme, 100, SWEEP_GRID))), p

    def test_bit_identical_past_the_euler_limit(self):
        # P1 and P2 up to 1.2 times the Euler limit 2n/|lambda_b|: a
        # negative growth factor for odd n, and both branches of the radius
        seen = set()
        for p in (P1, P2):
            for n in (1, 3, 100):
                grid = np.linspace(1e-3, 2.4 * n / abs(p.lambda_b), 500)
                for scheme in SchemeId:
                    assert (bits(swept_radii(p, scheme, n, grid))
                            == bits(point_radii(p, scheme, n, grid))), \
                        (p, n, scheme)
                    a, b, c, d = linlab._step_entries(p, grid, n, scheme)
                    disc = 0.25 * (a + d) * (a + d) - (a * d - b * c)
                    seen |= {"real" if x >= 0 else "complex" for x in disc}
                g, _ = linlab._euler_map(p, grid, n)
                seen |= {"negative g"} if np.any(g < 0) else set()
        assert seen == {"real", "complex", "negative g"}

    def test_array_radius_is_the_float_radius(self):
        rng = np.random.default_rng(5)
        m = (rng.normal(size=(4, 4000))
             * 10.0 ** rng.integers(-3, 4, size=(4, 4000)))
        # a double eigenvalue, zero, a singular and a traceless matrix
        edge = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                         [2.0, 1.0, 4.0, 2.0], [1.0, 2.0, -3.0, -1.0]]).T
        m = np.hstack([m, edge])
        want = [linlab._radius_2x2(*col) for col in m.T.tolist()]
        assert bits(linlab._radii_2x2(*m)) == bits(want)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite 2x2"):
                linlab._radii_2x2(*np.array([[1.0, bad], [0.0, 0.0],
                                             [0.0, 0.0], [1.0, 1.0]]))

    def test_errors_are_the_first_points(self):
        # (1 - 0.005*H)^100 is finite at H = 237000 but w = -10*(g - 1)
        # is not, a non-finite matrix; at H = 250000 g overflows
        p = LinearCoupledParams(-5.0, -0.5, 0.6, 5.0)
        matrix = r"^the step matrix overflows at H=237000\.0$"
        for scheme in (SchemeId.COSIM_PARALLEL, SchemeId.COSIM_SERIES):
            for grid in ([237000.0, 250000.0], np.array([237000.0, 250000.0])):
                with pytest.raises(OverflowError, match=matrix):
                    stability_sweep(p, scheme, 100, grid)
                with pytest.raises(OverflowError, match=matrix):
                    point_radii(p, scheme, 100, grid)
            for grid in ([1.0, 250000.0, 237000.0], np.array([250000.0])):
                with pytest.raises(OverflowError,
                                   match=r"growth factor overflows at "
                                         r"H=250000\.0$"):
                    stability_sweep(p, scheme, 100, grid)
        # the trapezoidal determinant overflows quietly, as on floats
        with pytest.raises(OverflowError,
                           match=r"^the step matrix overflows at H=1e\+200$"):
            stability_sweep(P1, SchemeId.TOTAL_TRAPEZOIDAL, 100, [1.0, 1e200])

    def test_overflowing_entries_are_numeric(self):
        # the growth factor at H = 237000 is finite (~2e307), w is not:
        # the sweep and the point radius raise OverflowError there, as
        # they do where g itself overflows, and so does the threshold
        # search where it meets such a matrix
        p = LinearCoupledParams(-5.0, -0.5, 0.6, 5.0)
        g, w = linlab._euler_map(p, 237000.0, 100)
        assert math.isfinite(g) and not math.isfinite(w)
        for scheme in (SchemeId.COSIM_PARALLEL, SchemeId.COSIM_SERIES):
            with pytest.raises(OverflowError, match="step matrix overflows"):
                linlab._radius(p, scheme, 100, 237000.0)
            with pytest.raises(OverflowError, match="step matrix overflows"):
                stability_sweep(p, scheme, 100, [236900.0, 237000.0])
        # the trapezoidal scheme is stable up to where its entries overflow
        with pytest.raises(OverflowError, match="step matrix overflows"):
            find_stability_threshold(P1, SchemeId.TOTAL_TRAPEZOIDAL, 100,
                                     h_max=1e300)


class TestOneStepTruncation:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_bit_identical_to_the_run_on_bench_box(self, scheme):
        # the bench's numpy H, and Python floats on the first draws
        for i, p in enumerate(bench_box_draws(200, seed=4)):
            hs = [*TRUNC_GRID, *(TRUNC_GRID.tolist() if i < 20 else [])]
            for x0 in (StateVec2(1, 1), StateVec2(0.3, -1.7)):
                for h in hs:
                    got = local_truncation_error(p, x0, h, scheme)
                    want = old_local_truncation_error(p, x0, h, scheme)
                    assert (bits([got.x_a, got.x_b])
                            == bits([want.x_a, want.x_b])), (p, x0, h)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_non_finite_step_raises_as_the_run(self, scheme):
        message = ("OverflowError", "the scheme's step is non-finite at this H")
        cases = [
            # the growth factor overflows (the total scheme has none)
            (StateVec2(1, 1), 1e6, scheme is not SchemeId.TOTAL_TRAPEZOIDAL),
            # the outputs k*x0 overflow
            (StateVec2(1e308, 1e308), 0.1, True),
            # parallel: both states end finite, A's output k_b*x_a does
            # not; series: B takes that output
            (StateVec2(0.89e308, -0.8e308), 0.5,
             scheme is not SchemeId.TOTAL_TRAPEZOIDAL),
        ]
        for x0, h, raises in cases:
            got = outcome(local_truncation_error, P2, x0, h, scheme)
            with warnings.catch_warnings():  # the old run's inf - inf gaps
                warnings.simplefilter("ignore", RuntimeWarning)
                want = outcome(old_local_truncation_error, P2, x0, h, scheme)
            assert got == want, (x0, h)
            assert (got == message) is raises, (x0, h, got)


class NumpyCounter:
    """Stands in for numpy in a module: each numpy function called
    through it is counted by name.  Types, modules and constants pass
    through uncounted."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)
        return counted


class TestMarchNumpyCalls:
    """The interface vectors are Python floats, so a macro step of the
    march, exchange and record, makes no numpy call; the one numpy call
    per record is the row array ``TimeSeriesLog.append`` stores."""

    def numpy_calls(self, monkeypatch, scheme, n_steps):
        counter = NumpyCounter()
        with monkeypatch.context() as m:
            m.setattr(cosim, "np", counter)
            m.setattr(linlab, "np", counter)
            traj = simulate_linear(P1, StateVec2(1.0, -0.5), 0.01, 100,
                                   n_steps * 0.01, scheme)
        assert len(traj.times) == n_steps + 1 and not traj.diverged
        return counter.calls

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_no_numpy_call_per_step(self, monkeypatch, scheme):
        short = self.numpy_calls(monkeypatch, scheme, 10)
        long = self.numpy_calls(monkeypatch, scheme, 200)
        assert short["asarray"] >= 11
        rows = collections.Counter(asarray=190)
        assert long == short + rows, long - short
