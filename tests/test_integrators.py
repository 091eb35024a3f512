import math

import numpy as np
import pytest

from cotds import integrators
from cotds.integrators import (
    DaeSystem,
    JacobianCache,
    NewtonConfig,
    NewtonError,
    rk_component_step,
    trapezoidal_dae_step,
)
from cotds.linlab import (
    LinearCoupledParams,
    StateVec2,
    step_total_trapezoidal,
    system_matrix,
)


class ScalarDecay(DaeSystem):
    n_x, n_y = 1, 0

    def __init__(self, lam):
        self.lam = lam

    def f(self, x, y, u):
        return self.lam * x


class CoupledLinear(DaeSystem):
    """linlab total system wrapped as a pure-ODE DaeSystem."""

    n_x, n_y = 2, 0

    def __init__(self, p):
        self.a = system_matrix(p)

    def f(self, x, y, u):
        return self.a @ x


class WithAlgebraic(DaeSystem):
    """x' = -x + y, 0 = y - 2x  (so effectively x' = x... kept stable: y = 0.5x)."""

    n_x, n_y = 1, 1

    def f(self, x, y, u):
        return -x + y

    def g(self, x, y, u):
        return y - 0.5 * x


class Pendulum(DaeSystem):
    """Nonlinear pendulum with its restoring force as an algebraic unknown:
    x0' = x1, x1' = -y, 0 = y - sin(x0)."""

    n_x, n_y = 2, 1

    def f(self, x, y, u):
        return np.array([x[1], -y[0]])

    def g(self, x, y, u):
        return np.array([y[0] - math.sin(x[0])])


class Cubic(DaeSystem):
    """x' = -x^3.  A trapezoidal step of h = 0.5 from x = 2 has the
    residual z + z^3/4: its predictor is -2, its root 0, and its slope 4
    at the predictor and 1 at the root."""

    n_x, n_y = 1, 0

    def f(self, x, y, u):
        return -x ** 3


class NoRoot(DaeSystem):
    n_x, n_y = 1, 1

    def f(self, x, y, u):
        return -x

    def g(self, x, y, u):
        return y * y + 1.0  # no real root


class TestTrapezoidalDae:
    def test_scalar_closed_form(self):
        x1, _ = trapezoidal_dae_step(ScalarDecay(-1.0), [1.0], [], None, 0.1)
        assert x1[0] == pytest.approx(0.95 / 1.05, abs=1e-10)

    def test_matches_linlab_direct_solve(self):
        p = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)
        ref = step_total_trapezoidal(p, 0.3, StateVec2(1.0, -0.5)).as_array()
        x1, _ = trapezoidal_dae_step(CoupledLinear(p), [1.0, -0.5], [], None, 0.3,
                                     NewtonConfig(residual_tolerance=1e-13))
        assert np.max(np.abs(x1 - ref)) <= 1e-10

    def test_equilibrium_unchanged(self):
        x1, y1 = trapezoidal_dae_step(WithAlgebraic(), [0.0], [0.0], None, 0.5)
        assert abs(x1[0]) <= 1e-10 and abs(y1[0]) <= 1e-10

    def test_algebraic_constraint_enforced(self):
        x1, y1 = trapezoidal_dae_step(WithAlgebraic(), [1.0], [0.5], None, 0.1)
        assert y1[0] == pytest.approx(0.5 * x1[0], abs=1e-8)

    def test_newton_count_on_linear_problem(self):
        calls = {"n": 0}

        class Counting(ScalarDecay):
            def f(self, x, y, u):
                calls["n"] += 1
                return super().f(x, y, u)

        trapezoidal_dae_step(Counting(-2.0), [1.0], [], None, 0.1)
        # entry eval + <=2 Newton iterations of (residual + 1-column FD jacobian
        # + damping trial); linear problems converge on the first update
        assert calls["n"] <= 1 + 2 * 3

    def test_nonconvergence_raises(self):
        with pytest.raises(NewtonError):
            trapezoidal_dae_step(NoRoot(), [1.0], [0.0], None, 0.1,
                                 NewtonConfig(max_iterations=8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iterations=0)
        with pytest.raises(ValueError):
            NewtonConfig(residual_tolerance=0.0)


class TestJacobianReuse:
    TIGHT = NewtonConfig(residual_tolerance=1e-12)

    def march(self, h, n, cache=None, x=(1.2, 0.0)):
        x, y = np.array(x), np.array([math.sin(x[0])])
        for _ in range(n):
            x, y = trapezoidal_dae_step(Pendulum(), x, y, None, h,
                                        self.TIGHT, cache)
        return x, y

    def test_cached_matches_uncached(self):
        cache = JacobianCache()
        x_c, y_c = self.march(0.05, 50, cache)
        x_u, y_u = self.march(0.05, 50)
        assert np.max(np.abs(x_c - x_u)) <= 1e-8
        assert np.max(np.abs(y_c - y_u)) <= 1e-8
        # the pendulum swings through half a period: a few rebuilds at most
        assert cache.jacobian_builds <= 5
        assert cache.reused_steps >= 40
        assert cache.residual_evals >= 50

    def test_step_change_rebuilds(self):
        cache = JacobianCache()
        self.march(0.05, 3, cache)
        builds = cache.jacobian_builds
        self.march(0.02, 1, cache)
        assert cache.jacobian_builds > builds
        assert cache.fallbacks == 0
        assert cache.h == 0.02

    def test_poisoned_cache_falls_back(self):
        cache = JacobianCache()
        cache.jac, cache.h = -np.eye(3), 0.05  # wrong sign and scale
        x_c, y_c = self.march(0.05, 1, cache)
        x_u, y_u = self.march(0.05, 1)
        assert cache.fallbacks == 1
        assert np.max(np.abs(x_c - x_u)) == 0.0
        assert np.max(np.abs(y_c - y_u)) == 0.0
        # the full Newton's Jacobian replaced the poisoned one
        assert not np.array_equal(cache.jac, -np.eye(3))

    def test_singular_cached_jacobian_falls_back(self):
        cache = JacobianCache()
        cache.jac, cache.h = np.zeros((3, 3)), 0.05
        x_c, _ = self.march(0.05, 1, cache)
        assert cache.fallbacks == 1
        assert np.array_equal(x_c, self.march(0.05, 1)[0])

    def test_nonconvergence_with_cache_raises(self):
        cache = JacobianCache()
        cache.jac, cache.h = np.eye(2), 0.1
        with pytest.raises(NewtonError):
            trapezoidal_dae_step(NoRoot(), [1.0], [0.0], None, 0.1,
                                 NewtonConfig(max_iterations=8), cache)
        assert cache.fallbacks == 1

    def test_dropped_reuse_goes_on_from_last_kept_iterate(self, monkeypatch):
        # with the kept slope 3 the first update contracts (z -2 -> -2/3,
        # |r| 4 -> 20/27) and the second does not (|r| -> 0.44)
        evaluated, built = [], []

        class Recorded(Cubic):
            def f(self, x, y, u):
                evaluated.append(float(x[0]))
                return super().f(x, y, u)

        fd_jacobian = integrators._fd_jacobian

        def spy(res, z, *rest):
            built.append(float(z[0]))
            return fd_jacobian(res, z, *rest)

        monkeypatch.setattr(integrators, "_fd_jacobian", spy)
        cache = JacobianCache()
        cache.jac, cache.h = np.array([[3.0]]), 0.5
        x1, _ = trapezoidal_dae_step(Recorded(), [2.0], [], None, 0.5,
                                     self.TIGHT, cache)
        assert evaluated.count(-2.0) == 1  # the predictor, once
        assert built[0] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert cache.fallbacks == 1 and cache.reused_steps == 0
        assert abs(x1[0] + x1[0] ** 3 / 4) <= self.TIGHT.residual_tolerance

    def test_clear_forces_rebuild(self):
        cache = JacobianCache()
        self.march(0.05, 3, cache)
        builds = cache.jacobian_builds
        cache.clear()
        self.march(0.05, 1, cache)
        assert cache.jacobian_builds > builds
        assert cache.fallbacks == 0


class TestRkComponentStep:
    def test_scalar_exponential(self):
        x = rk_component_step(lambda x, u: -x, np.array([1.0]), None, 1.0, 1e-8)
        assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_fast_decay(self):
        x = rk_component_step(lambda x, u: -10.0 * x, np.array([1.0]), None,
                              0.006, 1e-8)
        assert x[0] == pytest.approx(math.exp(-0.06), abs=1e-8)

    def test_tolerance_sweep_monotone(self):
        def deriv(x, u):
            return np.array([x[1], -x[0]])  # harmonic oscillator

        ref = np.array([math.cos(3.0), -math.sin(3.0)])
        errs = []
        for tol in (1e-3, 1e-5, 1e-7, 1e-9):
            x = rk_component_step(deriv, np.array([1.0, 0.0]), None, 3.0, tol)
            errs.append(np.max(np.abs(x - ref)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_observed_order_at_least_four(self):
        def deriv(x, u):
            return np.array([x[1], -x[0]])

        ref = np.array([math.cos(1.0), -math.sin(1.0)])
        errs = []
        steps = [0.2, 0.1, 0.05, 0.025]
        for dt in steps:
            x = rk_component_step(deriv, np.array([1.0, 0.0]), None, 1.0,
                                  tol=1.0, fixed_step=dt)
            errs.append(np.max(np.abs(x - ref)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope >= 4.0

    def test_input_held_constant(self):
        x = rk_component_step(lambda x, u: np.array([u]), np.array([0.0]),
                              2.5, 2.0, 1e-9)
        assert x[0] == pytest.approx(5.0, abs=1e-9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            rk_component_step(lambda x, u: -x, np.array([1.0]), None, 1.0, 0.0)
