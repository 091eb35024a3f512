import cmath
import math
from fractions import Fraction as Fr

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
    build_M_total,
    system_matrix,
)
from cotds.loads import InductionMotor, InductionMotorParams


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
        ref = build_M_total(p, 0.3) @ [1.0, -0.5]
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
        assert cache.inv is not None
        builds = cache.jacobian_builds
        self.march(0.02, 1, cache)
        assert cache.jacobian_builds > builds
        assert cache.fallbacks == 0
        assert cache.h == 0.02
        # the damped Newton of the new h leaves its Jacobian uninverted
        assert cache.inv is None
        builds = cache.jacobian_builds
        self.march(0.02, 1, cache)
        assert cache.jacobian_builds == builds
        assert np.array_equal(cache.inv, np.linalg.inv(cache.jac))

    def test_assigned_jacobian_drops_its_inverse(self):
        # a stale inverse of the marched Jacobian would pass the
        # contraction test where the assigned one fails it
        cache = JacobianCache()
        x, y = self.march(0.05, 5, cache)
        assert cache.inv is not None
        fallbacks = cache.fallbacks
        cache.jac = -np.eye(3)
        assert cache.inv is None
        x_c, y_c = trapezoidal_dae_step(Pendulum(), x, y, None, 0.05,
                                        self.TIGHT, cache)
        x_u, y_u = trapezoidal_dae_step(Pendulum(), x, y, None, 0.05,
                                        self.TIGHT)
        assert cache.fallbacks == fallbacks + 1
        assert np.array_equal(x_c, x_u) and np.array_equal(y_c, y_u)

    def test_kept_updates_solve_no_system(self, monkeypatch):
        # a dense solve only in the damped Newton, once per fresh
        # Jacobian; the kept updates multiply by the stored inverse
        solves, inverses = [], []
        solve, inv = np.linalg.solve, np.linalg.inv

        def counted_solve(*args):
            solves.append(1)
            return solve(*args)

        def counted_inv(*args):
            inverses.append(1)
            return inv(*args)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        cache = JacobianCache()
        self.march(0.05, 50, cache)
        assert len(solves) == cache.jacobian_builds
        assert len(inverses) <= cache.jacobian_builds
        assert cache.reused_steps >= 40

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


class TestRkComponentStep:
    def test_scalar_exponential(self):
        x = rk_component_step(lambda x, u: [-x[0]], [1.0], None, 1.0, 1e-8)
        assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_fast_decay(self):
        x = rk_component_step(lambda x, u: [-10.0 * x[0]], [1.0], None,
                              0.006, 1e-8)
        assert x[0] == pytest.approx(math.exp(-0.06), abs=1e-8)

    def test_tolerance_sweep_monotone(self):
        def deriv(x, u):
            return [x[1], -x[0]]  # harmonic oscillator

        ref = np.array([math.cos(3.0), -math.sin(3.0)])
        errs = []
        for tol in (1e-3, 1e-5, 1e-7, 1e-9):
            x = rk_component_step(deriv, [1.0, 0.0], None, 3.0, tol)
            errs.append(np.max(np.abs(x - ref)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_observed_order_at_least_four(self):
        def deriv(x, u):
            return [x[1], -x[0]]

        ref = np.array([math.cos(1.0), -math.sin(1.0)])
        errs = []
        steps = [0.2, 0.1, 0.05, 0.025]
        for dt in steps:
            x = [1.0, 0.0]
            k1 = deriv(x, None)
            for _ in range(round(1.0 / dt)):
                x, _, k1 = integrators._dp_step(deriv, x, None, dt, k1)
            errs.append(np.max(np.abs(x - ref)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope >= 4.0

    def test_input_held_constant(self):
        x = rk_component_step(lambda x, u: [u], [0.0], 2.5, 2.0, 1e-9)
        assert x[0] == pytest.approx(5.0, abs=1e-9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            rk_component_step(lambda x, u: [-x[0]], [1.0], None, 1.0, 0.0)


# Dormand & Prince (1980), typed here independently of the module: stage
# matrix, 5th order weights, embedded 4th order weights
DP_A = [
    [],
    [Fr(1, 5)],
    [Fr(3, 40), Fr(9, 40)],
    [Fr(44, 45), Fr(-56, 15), Fr(32, 9)],
    [Fr(19372, 6561), Fr(-25360, 2187), Fr(64448, 6561), Fr(-212, 729)],
    [Fr(9017, 3168), Fr(-355, 33), Fr(46732, 5247), Fr(49, 176),
     Fr(-5103, 18656)],
    [Fr(35, 384), Fr(0), Fr(500, 1113), Fr(125, 192), Fr(-2187, 6784),
     Fr(11, 84)],
]
DP_B5 = [Fr(35, 384), Fr(0), Fr(500, 1113), Fr(125, 192), Fr(-2187, 6784),
         Fr(11, 84), Fr(0)]
DP_B4 = [Fr(5179, 57600), Fr(0), Fr(7571, 16695), Fr(393, 640),
         Fr(-92097, 339200), Fr(187, 2100), Fr(1, 40)]


def exact_dp_step(z):
    """One exact DP step of x' = z x from x = 1 with dt = 1: (x5, err).

    The stages are k = z (I - zA)^-1 1, by forward substitution since A
    is strictly lower triangular; x5 = 1 + b5.k, err = (b5 - b4).k.
    """
    k = []
    for row in DP_A:
        k.append(z * (1 + sum(a * kj for a, kj in zip(row, k))))
    x5 = 1 + sum(b * kj for b, kj in zip(DP_B5, k))
    err = sum((b5 - b4) * kj for b5, b4, kj in zip(DP_B5, DP_B4, k))
    return x5, err


class TestDormandPrinceTableau:
    Z = [Fr(-3, 2), Fr(-1), Fr(-1, 2), Fr(-1, 10), Fr(1, 4), Fr(3, 4)]

    def test_typed_tableau_has_the_dp5_stability_polynomial(self):
        # the independent coefficients themselves: R(z) = sum_{j<=5}
        # z^j/j! + z^6/600, exactly
        for z in self.Z:
            x5, _ = exact_dp_step(z)
            taylor = sum(z ** j / math.factorial(j) for j in range(6))
            assert x5 == taylor + z ** 6 / 600

    @pytest.mark.parametrize("z", Z)
    def test_one_step_matches_exact_tableau(self, z):
        x5, err, _ = integrators._dp_step(lambda x, u: [float(z) * x[0]],
                                          [1.0], None, 1.0, [float(z)])
        want_x5, want_err = exact_dp_step(z)
        assert abs(x5[0] - float(want_x5)) <= 1e-14
        assert abs(err[0] - float(want_err)) <= 1e-14


def matrix_dp_step(deriv, x, u, dt):
    """One DP step in matrix form, from the tableau typed above: (x5, err).

    Each stage is k_i = deriv(x + dt (A k)_i) over the zero-padded stage
    matrix, x5 = x + dt b5.k and err = dt (b5 - b4).k.
    """
    a = np.array([[float(c) for c in row] + [0.0] * (7 - len(row))
                  for row in DP_A])
    b5 = np.array([float(c) for c in DP_B5])
    e = np.array([float(c5 - c4) for c5, c4 in zip(DP_B5, DP_B4)])
    k = np.zeros((7, x.size))
    for i in range(7):
        k[i] = deriv(x + dt * (a[i] @ k), u)
    return x + dt * (b5 @ k), dt * (e @ k)


def matrix_rk(deriv, x, u, h, tol):
    """``rk_component_step``'s step control over ``matrix_dp_step``.

    Returns the state at h and the numbers of accepted and rejected steps.
    """
    x = np.asarray(x, dtype=float)
    t, dt, accepted, rejected = 0.0, h, 0, 0
    while t < h - 1e-15 * h:
        dt = min(dt, h - t)
        x_new, err = matrix_dp_step(deriv, x, u, dt)
        q = err / (tol * np.maximum(1.0, np.abs(x)))
        enorm = float(np.sqrt(np.mean(q * q)))
        if enorm <= 1.0:
            t, x, accepted = t + dt, x_new, accepted + 1
            dt *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
        else:
            rejected += 1
            dt *= max(0.2, 0.9 * (1.0 / enorm) ** 0.2)
    return x, accepted, rejected


class TestUnrolledDormandPrince:
    """The unrolled Dormand-Prince stages against the matrix form of the
    independently typed tableau, on a coupled nonlinear three-state
    system: an induction motor starting from standstill at a fixed
    terminal voltage."""

    V = 0.98 * cmath.exp(0.1j)

    def motor(self):
        m = InductionMotor(InductionMotorParams(
            rs=0.013, xs=0.05, xm=6.0, rr=0.03, xr=0.12, h_m=0.6,
            mva_scale=0.25), 2.0 * math.pi * 60.0)
        m.initialize(self.V, 0.20)  # sets the load torque
        return m

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_one_step(self, dt):
        m = self.motor()
        x0 = m.standstill_state()
        x5, err, k7 = integrators._dp_step(
            m.derivatives, x0.tolist(), self.V, dt, m.derivatives(x0, self.V))
        want_x5, want_err = matrix_dp_step(
            lambda x, v: np.array(m.derivatives(x, v)), x0, self.V, dt)
        assert np.max(np.abs(np.array(x5) - want_x5)) <= 1e-12
        assert np.max(np.abs(np.array(err) - want_err)) <= 1e-12
        # first same as last: the last stage is the derivative at x5
        assert k7 == m.derivatives(x5, self.V)

    def test_adaptive_step_with_rejections(self):
        m = self.motor()
        calls = []

        def deriv(x, v):
            calls.append(1)
            return m.derivatives(x, v)

        x0 = m.standstill_state()
        x = rk_component_step(deriv, x0, self.V, 0.05, tol=1e-6)
        want, accepted, rejected = matrix_rk(
            lambda x, v: np.array(m.derivatives(x, v)), x0, self.V, 0.05,
            1e-6)
        assert accepted > 1 and rejected > 0
        assert np.max(np.abs(np.array(x) - want)) <= 1e-12
        # one derivative to start, then six per step, accepted or not
        assert len(calls) == 1 + 6 * (accepted + rejected)
