import cmath
import gc
import importlib
import inspect
import math
import pkgutil
import sys
import weakref
from fractions import Fraction as Fr

import numpy as np
import pytest

import cotds
from cotds import integrators
from cotds.cosim import (CouplingMethod, CouplingSchedule, Event,
                         exchange_step, march)
from cotds.engine import (MonolithicDae, build_subsystems,
                          iterative_td_powerflow_init)
from cotds.feeder import DistributionSubSystem
from cotds.integrators import (
    A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64,
    A65, B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7,
    DaeSystem,
    JacobianCache,
    NewtonConfig,
    NewtonError,
    StiffnessError,
    rk_component_step,
    trapezoidal_dae_step,
)
from cotds.linlab import (
    LinearCoupledParams,
    SchemeId,
    StepConfig,
    build_step_matrix,
    system_matrix,
)
from cotds.loads import InductionMotor, InductionMotorParams
from cotds.scenario_io import fixture_path, load_scenario
from cotds.transmission import TransmissionDae


class ScalarDecay(DaeSystem):
    n_x, n_y = 1, 0

    def __init__(self, lam):
        self.lam = lam

    def f(self, x, y):
        return self.lam * x


class CoupledLinear(DaeSystem):
    """linlab total system wrapped as a pure-ODE DaeSystem."""

    n_x, n_y = 2, 0

    def __init__(self, p):
        self.a = system_matrix(p)

    def f(self, x, y):
        return self.a @ x


class WithAlgebraic(DaeSystem):
    """x' = -x + y, 0 = y - 2x  (so effectively x' = x... kept stable: y = 0.5x)."""

    n_x, n_y = 1, 1

    def f(self, x, y):
        return -x + y

    def g(self, x, y, u):
        return y - 0.5 * x


class Pendulum(DaeSystem):
    """Nonlinear pendulum with its restoring force as an algebraic unknown:
    x0' = x1, x1' = -y, 0 = y - sin(x0)."""

    n_x, n_y = 2, 1

    def f(self, x, y):
        return np.array([x[1], -y[0]])

    def g(self, x, y, u):
        return np.array([y[0] - math.sin(x[0])])


class Cubic(DaeSystem):
    """x' = -x^3.  A trapezoidal step of h = 0.5 from x = 2 has the
    residual z + z^3/4: its predictor is -2, its root 0, and its slope 4
    at the predictor and 1 at the root."""

    n_x, n_y = 1, 0

    def f(self, x, y):
        return -x ** 3


class NoRoot(DaeSystem):
    n_x, n_y = 1, 1

    def f(self, x, y):
        return -x

    def g(self, x, y, u):
        return y * y + 1.0  # no real root


class TestTrapezoidalDae:
    def test_scalar_closed_form(self):
        x1, _ = trapezoidal_dae_step(ScalarDecay(-1.0), [1.0], [], None, 0.1)
        assert x1[0] == pytest.approx(0.95 / 1.05, abs=1e-10)

    def test_matches_linlab_direct_solve(self):
        p = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)
        m = build_step_matrix(p, StepConfig(0.3), SchemeId.TOTAL_TRAPEZOIDAL)
        ref = m @ [1.0, -0.5]
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
            def f(self, x, y):
                calls["n"] += 1
                return super().f(x, y)

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

    @staticmethod
    def record_solves(monkeypatch):
        """Every (z, r) pair each Newton solve evaluates, a list a solve."""
        solves = []
        newton_solve = integrators.newton_solve

        def recorded(res, z0, *rest):
            evals = []
            solves.append(evals)

            def res_recorded(z):
                r = res(z)
                evals.append((z.copy(), r.copy()))
                return r

            return newton_solve(res_recorded, z0, *rest)

        monkeypatch.setattr(integrators, "newton_solve", recorded)
        return solves

    @staticmethod
    def meets_secant(inv, evals):
        """Whether ``inv`` meets the secant equation of the solve's last
        update, the step between its last two evaluated points.

        The step read back as z_b - z_a differs from the update that made
        z_b by the rounding of z_a + dz, at most eps/2 of |z_b| in each
        entry (the subtraction of close floats is exact); the update's
        own rounding is of order eps |dz|.  Allow 2 eps |z|, four times
        the worst miss seen on the pendulum (0.48 eps |z|).
        """
        (z_a, r_a), (z_b, r_b) = evals[-2:]
        miss = np.max(np.abs(inv @ (r_b - r_a) - (z_b - z_a)))
        return miss <= 2 * np.finfo(float).eps * np.max(np.abs(z_b))

    @staticmethod
    def record_builds(monkeypatch):
        """Every FD Jacobian the solves build, in order."""
        built = []
        fd_jacobian = integrators._fd_jacobian

        def recorded(*args):
            built.append(fd_jacobian(*args))
            return built[-1]

        monkeypatch.setattr(integrators, "_fd_jacobian", recorded)
        return built

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

    def test_step_change_rebuilds(self, monkeypatch):
        cache = JacobianCache()
        self.march(0.05, 3, cache)
        assert cache.inv is not None
        builds = cache.jacobian_builds
        built = self.record_builds(monkeypatch)
        self.march(0.02, 1, cache)
        assert cache.jacobian_builds > builds
        assert cache.fallbacks == 0
        assert cache.h == 0.02
        # the damped Newton of the new h holds the inverse of the last
        # Jacobian it built
        assert np.array_equal(cache.inv, np.linalg.inv(built[-1]))
        builds, inv = cache.jacobian_builds, cache.inv.copy()
        solves = self.record_solves(monkeypatch)
        self.march(0.02, 1, cache)
        assert cache.jacobian_builds == builds
        # the kept phase started from that inverse ...
        (z0, r0), (z1, _) = solves[0][:2]
        assert np.array_equal(z1, z0 + inv @ -r0)
        # ... and its secant updates left the inverse meeting the last
        # accepted update's secant equation
        assert self.meets_secant(cache.inv, solves[0])

    def test_assigned_inverse_replaces_the_kept_one(self):
        # the marched inverse would pass the contraction test where the
        # assigned one fails it
        cache = JacobianCache()
        x, y = self.march(0.05, 5, cache)
        assert cache.inv is not None
        fallbacks = cache.fallbacks
        cache.inv = np.linalg.inv(-np.eye(3))
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

    def test_kept_update_meets_secant_equation(self, monkeypatch):
        cache = JacobianCache()
        x, y = self.march(0.05, 3, cache)
        solves = self.record_solves(monkeypatch)
        checked = 0
        for _ in range(30):
            builds = cache.jacobian_builds
            x, y = self.march(0.05, 1, cache, x)
            if cache.jacobian_builds == builds:
                assert self.meets_secant(cache.inv, solves[-1])
                checked += 1
        assert checked >= 25

    @staticmethod
    def skipped_update_solve(res, jac, z0):
        """Solve from the kept inverse of ``jac``, and the inverse each
        residual evaluation saw, copied."""
        cache = JacobianCache()
        cache.inv = np.linalg.inv(jac)
        seen = []

        def recorded(z):
            seen.append(None if cache.inv is None else cache.inv.copy())
            return res(z)

        z = integrators.newton_solve(recorded, np.array(z0), NewtonConfig(),
                                     cache)
        return z, seen, cache

    def test_zero_secant_denominator_leaves_inverse(self):
        # r(z) = A z + (1, 4) with A = [[1, -2], [0, 4]], kept Jacobian
        # diag(1, 4): the first update s = (-1, -1) takes r from (1, 4) to
        # (2, 0), contracting, with s @ inv @ (r1 - r0) = -1 + 1 = 0
        # exactly.  Left as it is, the inverse lands the second update on
        # the root (-3, -1) exactly; divided by zero it would not.
        a = np.array([[1.0, -2.0], [0.0, 4.0]])
        z, seen, cache = self.skipped_update_solve(
            lambda z: a @ z + np.array([1.0, 4.0]), np.diag([1.0, 4.0]),
            [0.0, 0.0])
        assert np.array_equal(z, [-3.0, -1.0])
        assert np.array_equal(seen[2], np.diag([1.0, 0.25]))
        assert cache.residual_evals == 3
        assert cache.fallbacks == 0 and cache.jacobian_builds == 0

    def test_non_finite_secant_denominator_leaves_inverse(self):
        # r(z) = 1 + 1e-160 z with its own slope kept: the one update
        # lands on the root, and s @ inv overflows (|s| |inv| ~ 1e320)
        z, _, cache = self.skipped_update_solve(
            lambda z: 1.0 + 1e-160 * z, [[1e-160]], [0.0])
        assert abs(1.0 + 1e-160 * z[0]) <= NewtonConfig().residual_tolerance
        assert np.array_equal(cache.inv, np.linalg.inv([[1e-160]]))
        assert cache.residual_evals == 2
        assert cache.fallbacks == 0 and cache.jacobian_builds == 0

    def test_poisoned_cache_falls_back(self):
        cache = JacobianCache()
        # wrong sign and scale
        cache.inv, cache.h = np.linalg.inv(-np.eye(3)), 0.05
        x_c, y_c = self.march(0.05, 1, cache)
        x_u, y_u = self.march(0.05, 1)
        assert cache.fallbacks == 1
        assert np.max(np.abs(x_c - x_u)) == 0.0
        assert np.max(np.abs(y_c - y_u)) == 0.0
        # the inverse of the full Newton's Jacobian replaced the poisoned
        # one
        assert not np.array_equal(cache.inv, -np.eye(3))

    def test_singular_cached_jacobian_falls_back(self):
        # no solve keeps a singular Jacobian's inverse; a zero one, its
        # nearest stand-in, makes a null update, which does not contract
        cache = JacobianCache()
        cache.inv, cache.h = np.zeros((3, 3)), 0.05
        x_c, _ = self.march(0.05, 1, cache)
        assert cache.fallbacks == 1
        assert np.array_equal(x_c, self.march(0.05, 1)[0])

    def test_nonconvergence_with_cache_raises(self):
        cache = JacobianCache()
        cache.inv, cache.h = np.linalg.inv(np.eye(2)), 0.1
        with pytest.raises(NewtonError):
            trapezoidal_dae_step(NoRoot(), [1.0], [0.0], None, 0.1,
                                 NewtonConfig(max_iterations=8), cache)
        assert cache.fallbacks == 1
        # the failed damped phase kept none of its Jacobians
        assert np.array_equal(cache.inv, np.eye(2))

    def test_kept_update_meeting_tolerance_is_kept(self):
        # r(z) = z with the kept slope 2.5: the update scales z by 0.6,
        # more than CONTRACTION, but takes |r| from 1.5e-8 to 9e-9, under
        # the tolerance 1e-8, so the solve ends on the kept iterate
        cache = JacobianCache()
        cache.inv = np.linalg.inv([[2.5]])
        cfg = NewtonConfig(residual_tolerance=1e-8)
        z = integrators.newton_solve(lambda z: z, np.array([1.5e-8]), cfg,
                                     cache)
        assert z[0] == pytest.approx(9e-9, rel=1e-15)
        assert cache.fallbacks == 0 and cache.jacobian_builds == 0
        assert cache.reused_steps == 1 and cache.residual_evals == 2

    def test_dropped_reuse_goes_on_from_last_kept_iterate(self, monkeypatch):
        # with the kept slope 3 the first update contracts (z -2 -> -2/3,
        # |r| 4 -> 20/27) and the second does not (|r| -> 0.44)
        evaluated, built = [], []

        class Recorded(Cubic):
            def f(self, x, y):
                evaluated.append(float(x[0]))
                return super().f(x, y)

        fd_jacobian = integrators._fd_jacobian

        def spy(res, z, *rest):
            built.append(float(z[0]))
            return fd_jacobian(res, z, *rest)

        monkeypatch.setattr(integrators, "_fd_jacobian", spy)
        cache = JacobianCache()
        cache.inv, cache.h = np.linalg.inv([[3.0]]), 0.5
        x1, _ = trapezoidal_dae_step(Recorded(), [2.0], [], None, 0.5,
                                     self.TIGHT, cache)
        assert evaluated.count(-2.0) == 1  # the predictor, once
        assert built[0] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert cache.fallbacks == 1 and cache.reused_steps == 0
        assert abs(x1[0] + x1[0] ** 3 / 4) <= self.TIGHT.residual_tolerance


class CountingPendulum(Pendulum):
    def __init__(self):
        self.f_calls = 0

    def f(self, x, y):
        self.f_calls += 1
        return super().f(x, y)


PENDULUM_START = (np.array([0.5, 0.0]), np.array([math.sin(0.5)]))


def counted_step(dae, cache, x, y, h=0.05):
    """One step: its end point, and its f calls less its residual
    evaluations (1 where the start was evaluated, 0 where reused)."""
    f0, r0 = dae.f_calls, cache.residual_evals
    x, y = trapezoidal_dae_step(dae, x, y, None, h, cache=cache)
    return x, y, (dae.f_calls - f0) - (cache.residual_evals - r0)


class TestFirstSameAsLast:
    """A trapezoidal step takes the last step's end-point f as its f0."""

    def test_chained_steps_evaluate_f_once_per_residual(self):
        dae, cache = CountingPendulum(), JacobianCache()
        x, y = PENDULUM_START
        extra = []
        for h in [0.05] * 10 + [0.1] * 10:  # a new h keeps the end point
            x, y, e = counted_step(dae, cache, x, y, h)
            extra.append(e)
        assert extra == [1] + [0] * 19
        assert cache.residual_evals > 20

    def test_end_point_f_is_a_fresh_f(self):
        dae, cache = CountingPendulum(), JacobianCache()
        x, y, _ = counted_step(dae, cache, *PENDULUM_START)
        x1, y1, f1 = cache.end
        assert x1 is x and y1 is y
        assert f1.tobytes() == Pendulum().f(x, y).tobytes()

    @pytest.mark.parametrize("move, evaluated", [
        (lambda x, y: (x, y), 0),
        (lambda x, y: (x.copy(), y.copy()), 0),
        (lambda x, y: (list(x), list(y)), 0),
        (lambda x, y: (np.nextafter(x, np.inf), y), 1),
        (lambda x, y: (x, np.nextafter(y, -np.inf)), 1),
    ], ids=["same", "copy", "list", "x-ulp", "y-ulp"])
    def test_moved_start_is_evaluated(self, move, evaluated):
        dae, cache = CountingPendulum(), JacobianCache()
        x, y, _ = counted_step(dae, cache, *PENDULUM_START)
        _, _, e = counted_step(dae, cache, *move(x, y))
        assert e == evaluated

    def test_returned_arrays_are_read_only(self):
        for cache in (None, JacobianCache()):
            x1, y1 = trapezoidal_dae_step(Pendulum(), *PENDULUM_START, None,
                                          0.05, cache=cache)
            with pytest.raises(ValueError):
                x1[0] = 1.0
            with pytest.raises(ValueError):
                y1 += 1.0

    def test_end_point_not_last_evaluated_is_not_kept(self, monkeypatch):
        solve = integrators.newton_solve
        monkeypatch.setattr(integrators, "newton_solve",
                            lambda *args: solve(*args).copy())
        dae, cache = CountingPendulum(), JacobianCache()
        x, y, _ = counted_step(dae, cache, *PENDULUM_START)
        assert cache.end is None
        _, _, e = counted_step(dae, cache, x, y)
        assert e == 1

    def test_failed_step_keeps_the_last_end_point(self):
        cache = JacobianCache()
        dae = CountingPendulum()
        x, y, _ = counted_step(dae, cache, *PENDULUM_START)
        end = cache.end
        with pytest.raises(NewtonError):  # a tolerance no step can meet
            trapezoidal_dae_step(dae, x, y, None, 0.05, NewtonConfig(
                max_iterations=2, residual_tolerance=1e-300), cache)
        assert cache.end is end


def tc1_motor_start(method):
    """testcase1 with its motor start moved to t = 0.06 s, over 0.3 s at
    H = 0.006: (sub-systems, the trapezoidal DAE, its cache, the step
    march takes, the step's start point)."""
    scenario = load_scenario(fixture_path("testcase1"))
    subsystems, dsubs, buses = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    if method == "monolithic":
        mono = MonolithicDae(subsystems["T"], dsubs)
        return (subsystems, mono, mono.newton_cache, mono.advance,
                mono.gather)
    tsub = subsystems["T"]
    return (subsystems, tsub.dae, tsub.newton_cache,
            exchange_step(subsystems, CouplingMethod(method)),
            lambda: (tsub.x, tsub.y))


MOTOR_START = CouplingSchedule(
    0.006, 0.3, (Event(0.06, "D6", "connect_motor", {"name": "bus6_im2"}),))


def start_evaluations(dae, cache):
    """Count ``dae.f`` calls; returns ``evaluated(step, *args)``, which
    calls ``step(*args)`` and gives its f calls less its residual
    evaluations: 1 where the step evaluated f at its start, 0 where it
    reused it."""
    calls = [0]
    fresh = type(dae).f

    def counted(x, y):
        calls[0] += 1
        return fresh(dae, x, y)

    dae.f = counted

    def evaluated(step, *args):
        n, evals = calls[0], cache.residual_evals
        step(*args)
        return (calls[0] - n) - (cache.residual_evals - evals)
    return evaluated


@pytest.mark.parametrize("method", ["series", "parallel", "monolithic"])
def test_reused_f0_is_a_fresh_f_over_the_motor_start(method):
    subsystems, dae, cache, step, start = tc1_motor_start(method)
    evaluated = start_evaluations(dae, cache)
    reused = []

    def checked(h, switched):
        x, y = start()
        end = cache.end
        extra = evaluated(step, h, switched)
        assert extra in (0, 1)
        if extra == 0:
            assert end[2].tobytes() == type(dae).f(dae, x, y).tobytes()
        reused.append(extra == 0)

    log = march(MOTOR_START, subsystems, checked)
    assert log.failure is None and len(reused) == 50
    # the first step evaluates its start; T's input moves at the motor
    # start, but f reads none, and only the monolithic state jumps there
    assert reused[0] is False
    assert reused.count(False) == (2 if method == "monolithic" else 1)
    if method == "monolithic":
        assert reused[10] is False


@pytest.mark.parametrize("move, evaluated", [
    (lambda t: t.set_state(t.state() * (1 + 1e-12)), 1),
    (lambda t: t.rotate(1e-3), 1),
    (lambda t: t.set_state(t.state()), 0),  # bitwise the same point
], ids=["set_state", "rotate", "round-trip"])
def test_transmission_start_moved_by_the_state_contract(move, evaluated):
    subsystems, dae, cache, step, _ = tc1_motor_start("series")
    tsub = subsystems["T"]
    count = start_evaluations(dae, cache)
    step(0.006, set())
    move(tsub)
    assert count(tsub.advance, 0.006) == evaluated


def test_monolithic_switch_drops_the_end_point():
    # disconnect_motor moves no state, but the motor's derivatives drop
    # out of f: the step after it evaluates its start
    subsystems, mono, cache, step, _ = tc1_motor_start("monolithic")
    evaluated = start_evaluations(mono, cache)
    extra = []
    for action in (None, "disconnect_motor", None, "connect_motor"):
        if action:
            subsystems["D6"].switch(action, {"name": "bus6_im1"})
        extra.append(evaluated(step, 0.006, {"D6"} if action else set()))
    assert extra == [1, 1, 0, 1]


@pytest.mark.parametrize("method", ["series", "parallel", "monolithic"])
@pytest.mark.parametrize("events", [
    MOTOR_START.events,
    # two events that the schedule places on one boundary, 0.06 s
    MOTOR_START.events + (Event(0.0581, "D6", "disconnect_motor",
                                {"name": "bus6_im1"}),),
], ids=["one-event", "two-events"])
def test_step_told_of_the_motor_start(method, events):
    # march tells the step at 0.06 s, step 10, that it switched D6, once
    # however many events, and tells every other step it switched none
    subsystems, _, _, step, _ = tc1_motor_start(method)
    seen = []

    def recorded(h, switched):
        seen.append(switched)
        step(h, switched)

    schedule = CouplingSchedule(MOTOR_START.h_macro, MOTOR_START.t_end,
                                events)
    assert march(schedule, subsystems, recorded).failure is None
    assert seen == [{"D6"} if i == 10 else set() for i in range(50)]


@pytest.mark.parametrize("method", ["series", "parallel", "monolithic"])
def test_exchange_restarts_each_switched_spoke_once(method, monkeypatch):
    # three events on the boundary at 0.06 s, two of them D6's: the
    # exchange restarts D6 and D8 once each, in spoke order, each just
    # before it reads that spoke's output, and never D5; the monolithic
    # step writes every feeder's output itself and restarts none
    subsystems, _, _, step, _ = tc1_motor_start(method)
    names = {id(sub): name for name, sub in subsystems.items()}
    steps, calls = [0], []

    def counting(kind):
        read = getattr(DistributionSubSystem, kind)

        def counted(self):
            calls.append((steps[0], kind, names[id(self)]))
            return read(self)
        return counted

    for kind in ("restart", "output"):
        monkeypatch.setattr(DistributionSubSystem, kind, counting(kind))

    def counted_step(h, switched):
        step(h, switched)
        steps[0] += 1

    schedule = CouplingSchedule(MOTOR_START.h_macro, MOTOR_START.t_end,
                                MOTOR_START.events + (
        Event(0.0581, "D6", "disconnect_motor", {"name": "bus6_im1"}),
        Event(0.06, "D8", "disconnect_motor", {"name": "bus8_im1"})))
    assert march(schedule, subsystems, counted_step).failure is None
    restarts = [(k, name) for k, kind, name in calls if kind == "restart"]
    if method == "monolithic":
        assert restarts == []
        return
    assert restarts == [(10, "D6"), (10, "D8")]
    for j, (k, kind, name) in enumerate(calls):
        if kind == "restart":
            assert calls[j + 1] == (k, "output", name)


def test_monolithic_step_leaves_no_reference_cycle():
    # a cycle through the kept end point would hold every finished run's
    # component objects until the cyclic collector ran, raising peak memory
    subsystems, mono, cache, step, gather = tc1_motor_start("monolithic")
    step(0.006, set())
    ref = weakref.ref(mono)
    gc.disable()
    try:
        del subsystems, mono, cache, step, gather
        assert ref() is None
    finally:
        gc.enable()


def package_daes():
    """``DaeSystem`` and every subclass of it defined in the package."""
    for mod in pkgutil.iter_modules(cotds.__path__):
        importlib.import_module(f"cotds.{mod.name}")
    found, todo = {DaeSystem}, [DaeSystem]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("cotds."):
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def test_package_daes_found():
    assert set(package_daes()) == {DaeSystem, TransmissionDae, MonolithicDae}


@pytest.mark.parametrize("cls", package_daes(), ids=lambda c: c.__name__)
def test_f_reads_no_input(cls):
    # an f that read the input would differ between the end of one step
    # and the start of the next, whose input has moved
    assert list(inspect.signature(cls.f).parameters) == ["self", "x", "y"]


class TestSecantUpdate:
    """``_secant_update`` against the Jacobian form of Broyden's good
    update, inverted by LAPACK: no BLAS rank-one kernel is trusted."""

    N = 36  # the transmission side's stacked unknowns
    EPS = np.finfo(float).eps

    @classmethod
    def draw(cls, seed):
        """A J with singular values 1..100, its inverse, and a step s
        that changed the residual by y."""
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((cls.N, cls.N)))
        q2, _ = np.linalg.qr(rng.standard_normal((cls.N, cls.N)))
        jac = q1 @ np.diag(np.geomspace(1.0, 100.0, cls.N)) @ q2
        return (jac, np.linalg.inv(jac), rng.standard_normal(cls.N),
                rng.standard_normal(cls.N))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_inverse_of_updated_jacobian(self, seed):
        jac, inv, s, y = self.draw(seed)
        jac_new = jac + np.outer(y - jac @ s, s) / (s @ s)
        expected = np.linalg.inv(jac_new)
        got = integrators._secant_update(inv, s, y)
        # both sides are inverses of jac_new up to the rounding of an
        # inverse, n eps cond |A^-1| (Higham, *Accuracy and Stability of
        # Numerical Algorithms*, ch. 14); the secant side inherits that
        # of inv(jac), so take the worse condition of jac and jac_new
        # (worst measured over 200 draws: 0.6% of the bound)
        cond = max(np.linalg.cond(jac), np.linalg.cond(jac_new))
        bound = self.N * self.EPS * cond * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= bound

    @pytest.mark.parametrize("seed", range(10))
    def test_maps_residual_change_onto_step(self, seed):
        _, inv, s, y = self.draw(seed)
        hy, sh = inv @ y, s @ inv
        u = (s - hy) / (sh @ y)
        before = inv.copy()
        got = integrators._secant_update(inv, s, y)
        # H_new y = H y + u (sh . y) = s exactly; what is left is the
        # rounding of the n-term products H y, sh . y and H_new y, and of
        # H_new's entries, each at most (n + 4) eps of its terms' moduli
        # (worst measured over 200 draws: 1.3% of the bound)
        a = np.abs
        bound = (self.N + 4) * self.EPS * (
            a(got) @ a(y) + a(before) @ a(y) + a(u) * (a(sh) @ a(y)))
        assert np.all(a(got @ y - s) <= bound)

    def test_updates_in_place(self):
        _, inv, s, y = self.draw(0)
        before = inv.copy()
        assert integrators._secant_update(inv, s, y) is inv
        assert not np.array_equal(inv, before)


def decay(rate):
    """s' = rate s, with E' held at zero."""
    return lambda e, s, u: (0j, rate * s)


def oscillator(e, s, u):
    """The harmonic oscillator on E': e' = -i e, so e(t) = exp(-i t)."""
    return -1j * e, 0.0


class TestRkComponentStep:
    def test_scalar_exponential(self):
        _, s = rk_component_step(decay(-1.0), 0j, 1.0, None, 1.0, 1e-8)
        assert s == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_fast_decay(self):
        _, s = rk_component_step(decay(-10.0), 0j, 1.0, None, 0.006, 1e-8)
        assert s == pytest.approx(math.exp(-0.06), abs=1e-8)

    def test_tolerance_sweep_monotone(self):
        ref = np.array([math.cos(3.0), -math.sin(3.0)])
        errs = []
        for tol in (1e-3, 1e-5, 1e-7, 1e-9):
            e, _ = rk_component_step(oscillator, 1 + 0j, 0.0, None, 3.0, tol)
            errs.append(np.max(np.abs([e.real, e.imag] - ref)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_observed_order_at_least_four(self):
        ref = np.array([math.cos(1.0), -math.sin(1.0)])
        errs = []
        steps = [0.2, 0.1, 0.05, 0.025]
        for dt in steps:
            e, s = 1 + 0j, 0.0
            ke, ks = oscillator(e, s, None)
            for _ in range(round(1.0 / dt)):
                e, s, _, _, ke, ks = integrators._dp_step(
                    oscillator, e, s, None, dt, ke, ks)
            errs.append(np.max(np.abs([e.real, e.imag] - ref)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope >= 4.0

    def test_input_held_constant(self):
        _, s = rk_component_step(lambda e, s, u: (0j, u), 0j, 0.0, 2.5, 2.0,
                                 1e-9)
        assert s == pytest.approx(5.0, abs=1e-9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            rk_component_step(decay(-1.0), 0j, 1.0, None, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tol(self, tol):
        # a NaN tol would reject every step until StiffnessError, an
        # infinite one accept any step (s' = -10 s over h = 1 gave 1124)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            rk_component_step(decay(-10.0), 0j, 1.0, None, 1.0, tol)


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
        # x' = z x on both: E' from i, the slip from one
        zf = float(z)
        e5, s5, err_e, err_s, _, _ = integrators._dp_step(
            lambda e, s, u: (zf * e, zf * s), 1j, 1.0, None, 1.0, zf * 1j,
            zf)
        want_x5, want_err = exact_dp_step(z)
        for x5, err in ((e5.imag, err_e.imag), (s5, err_s)):
            assert abs(x5 - float(want_x5)) <= 1e-14
            assert abs(err - float(want_err)) <= 1e-14
        assert e5.real == 0.0 and err_e.real == 0.0


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


def as_list(deriv):
    """``deriv`` of (E', slip) as a derivative of the state [re E', im E',
    slip], a tuple of three floats: the list form's derivative."""
    def list_deriv(x, u):
        de, ds = deriv(complex(x[0], x[1]), float(x[2]), u)
        return de.real, de.imag, ds
    return list_deriv


def flat(e, s):
    return np.array([e.real, e.imag, s])


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
        x0 = flat(*m.standstill_state())
        e0, s0 = complex(x0[0], x0[1]), float(x0[2])
        e5, s5, err_e, err_s, k7e, k7s = integrators._dp_step(
            m.derivatives, e0, s0, self.V, dt, *m.derivatives(e0, s0, self.V))
        want_x5, want_err = matrix_dp_step(
            as_list(m.derivatives), x0, self.V, dt)
        assert np.max(np.abs(flat(e5, s5) - want_x5)) <= 1e-12
        assert np.max(np.abs(flat(err_e, err_s) - want_err)) <= 1e-12
        # first same as last: the last stage is the derivative at x5
        assert (k7e, k7s) == m.derivatives(e5, s5, self.V)

    def test_adaptive_step_with_rejections(self):
        m = self.motor()
        calls = []

        def deriv(e, s, v):
            calls.append(1)
            return m.derivatives(e, s, v)

        x0 = flat(*m.standstill_state())
        e, s = rk_component_step(deriv, complex(x0[0], x0[1]), float(x0[2]),
                                 self.V, 0.05, tol=1e-6)
        want, accepted, rejected = matrix_rk(
            as_list(m.derivatives), x0, self.V, 0.05, 1e-6)
        assert accepted > 1 and rejected > 0
        assert np.max(np.abs(flat(e, s) - want)) <= 1e-12
        # one derivative to start, then six per step, accepted or not
        assert len(calls) == 1 + 6 * (accepted + rejected)


# The list-form integrator the pair form replaced, kept as a bitwise
# oracle: the pair form must take every step, stage and step size it took
# and end on the same bytes.  Complex-by-float products and complex sums
# do, per component, the float operations of the list form.
def list_dp_step(deriv, x, u, dt, k1):
    k2 = deriv([xj + dt * (A21 * a) for xj, a in zip(x, k1)], u)
    k3 = deriv([xj + dt * (A31 * a + A32 * b)
                for xj, a, b in zip(x, k1, k2)], u)
    k4 = deriv([xj + dt * (A41 * a + A42 * b + A43 * c)
                for xj, a, b, c in zip(x, k1, k2, k3)], u)
    k5 = deriv([xj + dt * (A51 * a + A52 * b + A53 * c + A54 * d)
                for xj, a, b, c, d in zip(x, k1, k2, k3, k4)], u)
    k6 = deriv([xj + dt * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                for xj, a, b, c, d, e in zip(x, k1, k2, k3, k4, k5)], u)
    x5 = [xj + dt * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * f)
          for xj, a, c, d, e, f in zip(x, k1, k3, k4, k5, k6)]
    k7 = deriv(x5, u)
    err = [dt * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * f + E7 * g)
           for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)]
    return x5, err, k7


def list_rk_component_step(deriv, x, u, h, tol=1e-6):
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = [float(xj) for xj in x]
    k1 = deriv(x, u)
    n = len(x)
    t = 0.0
    dt = h
    while t < h - 1e-15 * h:
        dt = min(dt, h - t)
        x_new, err, k7 = list_dp_step(deriv, x, u, dt, k1)
        q = [e / (tol * max(1.0, abs(xj))) for e, xj in zip(err, x)]
        enorm = math.sqrt(sum(qj * qj for qj in q) / n) if n else 0.0
        if enorm <= 1.0 or dt <= h * 1e-12:
            if dt <= h * 1e-12 and enorm > 1.0:
                raise StiffnessError("step size underflow in RK integrator")
            t += dt
            x, k1 = x_new, k7
            dt *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
        else:
            dt *= max(0.2, 0.9 * (1.0 / enorm) ** 0.2)
            if dt < h * 1e-12:
                raise StiffnessError("step size underflow in RK integrator")
    return x


@pytest.fixture(scope="module")
def testcase1_motor():
    """testcase1's first motor and its terminal voltage, initialised."""
    subsystems, dsubs, buses = build_subsystems(load_scenario(fixture_path(
        "testcase1")))
    iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    fd = dsubs["D5"].feeders[0]
    mu = fd.motors[0]
    return mu.motor, mu.state, fd.v[mu.node]


class TestListFormOracle:
    """The pair form against the list form, byte for byte, on testcase1's
    first motor: every stage's input, every step and its size, and the
    result."""

    @staticmethod
    def traced(monkeypatch, module, name, start, result):
        """Record the bytes of every step's start, its size and the bytes
        of its 5th order result."""
        steps = []
        step = getattr(module, name)

        def recorded(*args):
            out = step(*args)
            x, dt = start(*args)
            steps.append((np.array(x).tobytes(), dt,
                          np.array(result(out)).tobytes()))
            return out

        monkeypatch.setattr(module, name, recorded)
        return steps

    @staticmethod
    def start(motor, x_eq, how):
        if how == "standstill":
            return flat(*motor.standstill_state())
        # off equilibrium: the flux 10% low and 90 degrees of it turned,
        # and the rotor slower by 0.05
        e = x_eq[0] * 0.9j
        return np.array([e.real, e.imag, x_eq[1] + 0.05])

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("h", [0.006, 0.037, 0.1, 0.5])
    @pytest.mark.parametrize("how", ["standstill", "off_equilibrium"])
    def test_bitwise(self, testcase1_motor, monkeypatch, how, h, tol):
        motor, x_eq, v = testcase1_motor
        x0 = self.start(motor, x_eq, how)
        pair_calls, list_calls = [], []

        def pair_deriv(e, s, u):
            pair_calls.append(flat(e, s).tobytes())
            return motor.derivatives(e, s, u)

        def list_deriv(x, u):
            list_calls.append(np.array(x).tobytes())
            return as_list(motor.derivatives)(x, u)

        pair_steps = self.traced(
            monkeypatch, integrators, "_dp_step",
            lambda deriv, e, s, u, dt, ke, ks: (flat(e, s), dt),
            lambda out: flat(out[0], out[1]))
        list_steps = self.traced(
            monkeypatch, sys.modules[__name__], "list_dp_step",
            lambda deriv, x, u, dt, k1: (x, dt), lambda out: out[0])
        e, s = rk_component_step(pair_deriv, complex(x0[0], x0[1]),
                                 float(x0[2]), v, h, tol)
        want = list_rk_component_step(list_deriv, x0, v, h, tol)
        assert flat(e, s).tobytes() == np.array(want).tobytes()
        assert pair_calls == list_calls
        assert len(pair_calls) == 1 + 6 * len(pair_steps)
        assert pair_steps == list_steps
        # a step is rejected when the next one starts where it did; the
        # first step, all of h, is too long in every case here
        rejected = sum(a[0] == b[0] for a, b in zip(pair_steps,
                                                    pair_steps[1:]))
        assert rejected > 0

    @pytest.mark.parametrize("x0, failure", [
        # a slip past the float range: the load torque's ** overflows
        ([0.9, -0.05, 1e200], OverflowError),
        # a flux past it: inf and nan in every error, rejected until the
        # step size underflows
        ([1e308, 1e308, 0.03], StiffnessError),
        ([0.9, -0.05, math.nan], StiffnessError),
    ])
    def test_non_finite_state_fails_as_before(self, testcase1_motor, x0,
                                              failure):
        motor, _, v = testcase1_motor
        with pytest.raises(failure):
            list_rk_component_step(as_list(motor.derivatives), x0, v, 0.006,
                                   1e-6)
        with pytest.raises(failure):
            rk_component_step(motor.derivatives, complex(x0[0], x0[1]),
                              x0[2], v, 0.006, 1e-6)
