import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotds.linlab import (
    LinearCoupledParams,
    SchemeId,
    StateVec2,
    StepConfig,
    analytic_solution,
    build_M_cosim_parallel,
    build_M_cosim_series,
    build_M_total,
    build_step_matrix,
    find_stability_threshold,
    local_truncation_error,
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
        m = build_M_total(P2, 0.75)
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
        assert spectral_radius(build_M_total(p, 2.0)) <= 1e-12

    def test_total_radius_h075(self):
        # hand-checked: det(M) = 0.71875/2.96875, complex pair
        m = build_M_total(P2, 0.75)
        assert spectral_radius(m) == pytest.approx(math.sqrt(0.71875 / 2.96875),
                                                   abs=1e-12)
        assert char_poly_radius(m) == pytest.approx(spectral_radius(m), abs=1e-10)

    @given(params_strategy, st.floats(0.01, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_total_a_stable(self, p, h):
        assert spectral_radius(build_M_total(p, h)) < 1.0

    @pytest.mark.parametrize("scheme,builder", [
        (SchemeId.COSIM_PARALLEL, build_M_cosim_parallel),
        (SchemeId.COSIM_SERIES, build_M_cosim_series),
    ])
    def test_column_extraction(self, scheme, builder):
        cfg = StepConfig(0.75, 100)
        m = builder(P2, cfg)
        e1 = one_step(P2, cfg, StateVec2(1, 0), scheme)
        e2 = one_step(P2, cfg, StateVec2(0, 1), scheme)
        assert np.max(np.abs(np.column_stack([e1, e2]) - m)) <= 1e-12

    def test_parallel_radius_near_unity(self):
        rho = spectral_radius(build_M_cosim_parallel(P2, StepConfig(0.75, 100)))
        assert rho == pytest.approx(0.97, abs=0.01)
        assert char_poly_radius(build_M_cosim_parallel(P2, StepConfig(0.75, 100))) \
            == pytest.approx(rho, abs=1e-10)

    def test_parallel_radius_stable_case(self):
        rho = spectral_radius(build_M_cosim_parallel(P1, StepConfig(0.1, 100)))
        assert rho < 1.0

    def test_series_radius_well_below_unity(self):
        rho = spectral_radius(build_M_cosim_series(P2, StepConfig(0.75, 100)))
        assert rho == pytest.approx(0.32, abs=0.01)

    def test_series_beats_parallel_on_strongly_coupled_set(self):
        # ordering holds pointwise for (-1,-2,2,2); for (-1,-10,2,2) the
        # parallel schedule is actually the more stable one at small H,
        # so the claim is parameter-dependent (see acceptance suite)
        for h in np.linspace(0.05, 1.15, 23):
            cfg = StepConfig(h, 100)
            assert (spectral_radius(build_M_cosim_series(P2, cfg))
                    <= spectral_radius(build_M_cosim_parallel(P2, cfg)) + 1e-12)
        assert (find_stability_threshold(P2, SchemeId.COSIM_SERIES)
                > 1.2 * find_stability_threshold(P2, SchemeId.COSIM_PARALLEL))

    def test_micro_limit_is_exponential_integrator(self):
        # B-block entries approach the exact e^{lambda_b H} factors as n grows
        h = 0.5
        exact_g = math.exp(P2.lambda_b * h)
        exact_w = (P2.k_b / P2.lambda_b) * (exact_g - 1.0)
        errs = []
        for n in (10, 100, 1000, 10000):
            m = build_M_cosim_parallel(P2, StepConfig(h, n))
            errs.append(abs(m[1, 1] - exact_g) + abs(m[1, 0] - exact_w))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(r > 8 for r in ratios)  # O(1/n)


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
        assert spectral_radius(build_M_cosim_parallel(P2, cfg_lo)) < 1.0
        assert spectral_radius(build_M_cosim_parallel(P2, cfg_hi)) > 1.0

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
