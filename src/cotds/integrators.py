"""Numerical kernels for sub-system solvers.

``newton_solve`` is the package's Newton, with a finite-difference
Jacobian.  It solves the steady-state power flow
(``power_network.newton_power_flow``) and each implicit trapezoidal step
of a small dense DAE, on the stacked residual.  ``rk_component_step`` is
an adaptive embedded Runge-Kutta 4(5) (Dormand-Prince) integrator for
node-level component dynamics, one small state at a time: a motor's three
states, as a list of Python floats.  At that size numpy's per-call
overhead outweighs the arithmetic, so the seven stages are written out,
each stage input one list comprehension over the components, with the
tableau's zero weights left out.  The last stage of a step is the next
step's first (first same as last), so an accepted step takes six
derivative evaluations and a rejected one keeps its first.  Every step
is error-controlled.  All systems here are small and dense; no sparsity
is exploited.

``newton_solve`` is the simplified (modified) Newton of DASSL and of
Hairer & Wanner, refreshing its Jacobian where it stands.  While it
still holds the Jacobian a ``JacobianCache`` kept from an earlier solve,
it takes undamped updates and keeps each only while the residual norm
stays finite and falls to at most ``CONTRACTION`` times the previous
one.  At the first update that does not, or on a singular solve, it
drops that update and goes on from the last kept iterate with the damped
Newton: a fresh Jacobian every iteration, the last of which the cache
keeps.  It goes on the same way when the kept Jacobian's iterations run
out.  Each phase has ``cfg.max_iterations`` iterations; only the damped
one raises ``NewtonError``.  A trapezoidal step of another ``h`` drops
the kept Jacobian.

The kept phase pays for its matrix once: its first update inverts the
kept Jacobian and the cache stores the inverse, so every kept update is
one matrix-vector product, across steps, where a dense solve would
factor the same matrix again.  Each kept update the contraction test
accepts then refines the stored inverse by Broyden's rank-one secant
update, so that it maps the update's change of residual onto the update
itself.  The kept phase converges superlinearly where the stale
Jacobian alone contracts only linearly, and the next step starts from
the refined inverse, at no extra residual evaluation.  The inverse
starts from its Jacobian: any assignment to ``JacobianCache.jac`` drops
it, so a fresh build, a step of another ``h`` and a Jacobian set from
outside each start from that Jacobian's own inverse.  A singular kept
Jacobian fails to invert and is dropped like a failed update.  The
damped Newton uses each fresh Jacobian once and solves with it
directly.

``trapezoidal_dae_step`` runs the Newton with ``NewtonConfig()`` unless
handed another config.  It returns a finite step or raises
``OverflowError``, which ``cosim.march`` classifies as divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import dger

__all__ = [
    "DaeSystem",
    "NewtonConfig",
    "JacobianCache",
    "CONTRACTION",
    "NumericFailure",
    "NewtonError",
    "StiffnessError",
    "newton_solve",
    "trapezoidal_dae_step",
    "rk_component_step",
]


class NumericFailure(RuntimeError):
    """A solver could not produce a result; the run's numerics failed."""


class NewtonError(NumericFailure):
    """Newton iteration failed; carries the final residual norm."""

    def __init__(self, message, residual_norm):
        super().__init__(f"{message} (residual norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


class StiffnessError(NumericFailure):
    """Adaptive step size underflowed; the problem is too stiff."""


class DaeSystem:
    """Semi-explicit DAE  x' = f(x, y, u),  0 = g(x, y, u).

    Subclasses define ``f`` and ``g`` and the dimensions ``n_x``, ``n_y``.
    ``n_y`` may be zero, in which case ``g`` is never called.
    """

    n_x: int
    n_y: int

    def f(self, x: np.ndarray, y: np.ndarray, u) -> np.ndarray:
        raise NotImplementedError

    def g(self, x: np.ndarray, y: np.ndarray, u) -> np.ndarray:
        raise NotImplementedError


@dataclass
class NewtonConfig:
    max_iterations: int = 20
    residual_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be positive")


# relative step of the forward-difference Jacobian
_FD_EPSILON = 1e-7
# a damped update is halved at most this many times
_MAX_DAMPING_HALVINGS = 6
# a kept Jacobian's update must shrink the residual norm to at most this
# fraction of the one before
CONTRACTION = 0.5


def _fd_jacobian(res: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                 r0: np.ndarray) -> np.ndarray:
    n = z.size
    jac = np.empty((r0.size, n))
    for k in range(n):
        dz = _FD_EPSILON * max(1.0, abs(z[k]))
        zp = z.copy()
        zp[k] += dz
        jac[:, k] = (res(zp) - r0) / dz
    return jac


@np.errstate(over="ignore", invalid="ignore")
def _secant_update(inv: np.ndarray, s: np.ndarray,
                   yv: np.ndarray) -> np.ndarray:
    """Broyden's good update of the inverse ``inv`` for the step ``s``
    that changed the residual by ``yv``; returns the updated inverse.

    The Sherman-Morrison form of the rank-one secant update (Broyden,
    1965; Kelley, *Solving Nonlinear Equations with Newton's Method*,
    2003, ch. 7), inv + outer(s - inv @ yv, s @ inv) / (s @ inv @ yv):
    afterwards ``inv @ yv == s`` to rounding.  A zero or non-finite
    denominator, overflow included, leaves ``inv`` as it is.
    """
    hy = inv @ yv
    sh = s @ inv
    den = sh @ yv
    if den != 0.0 and math.isfinite(den):
        # BLAS ger on the transpose: the rank-one update in place, where
        # it is a third of the cost of numpy's outer product and sum
        inv = dger(1.0 / den, sh, s - hy, a=inv.T, overwrite_a=True).T
    return inv


class JacobianCache:
    """The last FD Jacobian of one residual, kept for the next solve.

    ``h`` is the trapezoidal step the Jacobian was built for.  ``inv``
    starts as the Jacobian's inverse once a kept update has needed it,
    and every accepted kept update refines it by one secant update, so
    it drifts from ``jac`` towards the Jacobian where the solves stand;
    assigning ``jac`` drops ``inv``.  The counters add up over every
    solve handed the cache: Jacobian builds, residual evaluations, solves
    that started with a kept Jacobian and built none, and solves whose
    kept-Jacobian update was dropped.
    """

    def __init__(self):
        self.jac = None
        self.h: float | None = None
        self.jacobian_builds = 0
        self.residual_evals = 0
        self.reused_steps = 0
        self.fallbacks = 0

    @property
    def jac(self) -> np.ndarray | None:
        return self._jac

    @jac.setter
    def jac(self, jac: np.ndarray | None) -> None:
        self._jac, self.inv = jac, None

    def counters(self) -> dict[str, int]:
        return {"jacobian_builds": self.jacobian_builds,
                "residual_evals": self.residual_evals,
                "reused_steps": self.reused_steps,
                "fallbacks": self.fallbacks}


def newton_solve(res: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
                 cfg: NewtonConfig,
                 cache: JacobianCache | None = None) -> np.ndarray:
    """Newton on res(z) = 0 starting from z0; see the module docstring.

    ``cache`` holds the Jacobian the solve starts with, keeps the last
    one it builds, and counts the work.  Without one the solve starts
    with no Jacobian: the damped Newton alone.
    """
    if cache is None:
        cache = JacobianCache()

    def counted(z):
        cache.residual_evals += 1
        return res(z)

    z = z0.copy()
    r = counted(z)
    rnorm = math.sqrt(r @ r)  # np.linalg.norm's own sum, without its wrapper
    kept = cache.jac is not None  # on the Jacobian the solve started with
    left = cfg.max_iterations
    while not rnorm <= cfg.residual_tolerance:  # a nan norm goes on
        if kept and not left:
            # the kept Jacobian failed or ran out: damped Newton from here
            kept, left = False, cfg.max_iterations
            cache.fallbacks += 1
        if not left:
            raise NewtonError("Newton did not converge", rnorm)
        left -= 1
        if not kept:
            cache.jac = _fd_jacobian(counted, z, r)
            cache.jacobian_builds += 1
        try:
            if kept:
                if cache.inv is None:
                    cache.inv = np.linalg.inv(cache.jac)
                dz = cache.inv @ -r
            else:
                dz = np.linalg.solve(cache.jac, -r)
        except np.linalg.LinAlgError as exc:
            if not kept:
                raise NewtonError(f"singular Jacobian: {exc}", rnorm) from exc
            left = 0
            continue
        if kept:
            z_new = z + dz
            r_new = counted(z_new)
            rnorm_new = math.sqrt(r_new @ r_new)
            if not (math.isfinite(rnorm_new)
                    and rnorm_new <= CONTRACTION * rnorm):
                left = 0
                continue
            cache.inv = _secant_update(cache.inv, dz, r_new - r)
        else:
            # halve the update while the residual norm fails to decrease
            step = 1.0
            for _ in range(_MAX_DAMPING_HALVINGS + 1):
                z_new = z + step * dz
                r_new = counted(z_new)
                rnorm_new = math.sqrt(r_new @ r_new)
                if math.isfinite(rnorm_new) and rnorm_new < rnorm:
                    break
                step *= 0.5
        z, r, rnorm = z_new, r_new, rnorm_new
    if kept:
        cache.reused_steps += 1
    return z


_DEFAULT_NEWTON = NewtonConfig()


def trapezoidal_dae_step(sys: DaeSystem, x: np.ndarray, y: np.ndarray, u,
                         h: float, cfg: NewtonConfig = _DEFAULT_NEWTON,
                         cache: JacobianCache | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """One implicit trapezoidal step of the DAE, input u held constant.

    Solves x1 = x + h/2 (f(x,y,u) + f(x1,y1,u)) together with
    g(x1,y1,u) = 0 on the stacked residual with ``newton_solve``, from
    the explicit Euler predictor.  ``cache`` carries the Jacobian from
    one step to the next; a step of another ``h`` drops it.  Without a
    cache every step runs the damped Newton with a fresh FD Jacobian each
    iteration.  Either way the root meets the same residual tolerance.
    """
    if cache is not None and h != cache.h:
        cache.jac, cache.h = None, h
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f0 = sys.f(x, y, u)
    nx, ny = x.size, y.size

    def residual(z):
        x1, y1 = z[:nx], z[nx:]
        rx = x1 - x - 0.5 * h * (f0 + sys.f(x1, y1, u))
        if ny:
            return np.concatenate([rx, sys.g(x1, y1, u)])
        return rx

    z0 = np.concatenate([x + h * f0, y]) if ny else x + h * f0
    z = newton_solve(residual, z0, cfg, cache)
    if not np.all(np.isfinite(z)):
        raise OverflowError("trapezoidal step is non-finite")
    return z[:nx].copy(), z[nx:].copy()


# Dormand-Prince 4(5) tableau: the stage matrix (strictly lower
# triangular, its rows cut at the diagonal), whose last row is the 5th
# order weights, and the error weights (5th less the embedded 4th order
# weights)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(
    _DP_A[6] + (0.0,),
    (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
     187 / 2100, 1 / 40)))
# the same entries by name for the unrolled stages; the zero weights of
# k2 (in the 5th order result and the error) have none
(_, (A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
 (A61, A62, A63, A64, A65), (B1, _, B3, B4, B5, B6)) = _DP_A
E1, _, E3, E4, E5, E6, E7 = _DP_E


def _dp_step(deriv, x, u, dt, k1):
    """One Dormand-Prince step from ``x``, whose derivative ``k1`` is given.

    Returns (5th order result, error estimate, derivative at the result).
    The last stage is taken at the 5th order result, so its derivative is
    the next step's ``k1`` (first same as last).
    """
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


def rk_component_step(deriv: Callable, x, u, h: float,
                      tol: float = 1e-6) -> list[float]:
    """Integrate x' = deriv(x, u) from 0 to h, input u held constant.

    ``x`` is any sequence of floats.  ``deriv`` is called with a list of
    floats and returns a sequence of floats; the result is a list of
    floats.  Adaptive Dormand-Prince 4(5) with proportional step control
    keeping the local error, scaled by tol * max(1, |x|), at most one in
    RMS over the components of x.

    The arithmetic is on Python floats: a float ``**`` that overflows
    inside ``deriv`` raises ``OverflowError``, which ``cosim.march``
    classifies as divergence, and a step whose error is not finite is
    rejected until the step size underflows (``StiffnessError``).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = [float(xj) for xj in x]
    k1 = deriv(x, u)
    n = len(x)
    t = 0.0
    dt = h
    while t < h - 1e-15 * h:
        dt = min(dt, h - t)
        x_new, err, k7 = _dp_step(deriv, x, u, dt, k1)
        q = [e / (tol * max(1.0, abs(xj))) for e, xj in zip(err, x)]
        enorm = math.sqrt(sum(qj * qj for qj in q) / n) if n else 0.0
        if enorm <= 1.0 or dt <= h * 1e-12:
            if dt <= h * 1e-12 and enorm > 1.0:
                raise StiffnessError("step size underflow in RK integrator")
            t += dt
            x, k1 = x_new, k7
            dt *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
        else:
            # a rejected step retries from the same x, so k1 stands
            dt *= max(0.2, 0.9 * (1.0 / enorm) ** 0.2)
            if dt < h * 1e-12:
                raise StiffnessError("step size underflow in RK integrator")
    return x
