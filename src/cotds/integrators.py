"""Numerical kernels for sub-system solvers.

``newton_solve`` is the package's Newton, with a finite-difference
Jacobian.  It solves the steady-state power flow
(``power_network.newton_power_flow``) and each implicit trapezoidal step
of a small dense DAE, on the stacked residual.  ``rk_component_step`` is
an adaptive embedded Runge-Kutta 4(5) (Dormand-Prince) integrator for
node-level component dynamics, one motor at a time, on the two scalars
its model uses: E' as one Python complex and the slip as one Python
float.  At that size numpy's per-call overhead outweighs the arithmetic,
so the seven stages are written out, each stage input two scalar
expressions, with the tableau's zero weights left out.  A complex times a
float and a sum of complexes do, per component, the float operations of
the same expressions on re E' and im E' apart, up to the sign of an exact
zero, so the steps are those of the three real states integrated as
floats (``tests/test_integrators.py`` keeps that form as a bitwise
oracle).  The last stage of a step is the next
step's first (first same as last), so an accepted step takes six
derivative evaluations and a rejected one keeps its first.  Every step
is error-controlled; its error scale max(1, |x_j|) is a conditional
expression that must compare as the ``max`` builtin does, nan included.
All systems here are small and dense; no sparsity is exploited.

``newton_solve`` is the simplified (modified) Newton of DASSL and of
Hairer & Wanner, refreshing its Jacobian where it stands.  A
``JacobianCache`` keeps one matrix across solves: the inverse of the
last Jacobian a solve built.  A solve handed such an inverse starts in
the kept phase: undamped updates ``inv @ -r``, each kept only while the
residual norm stays finite and either falls to at most ``CONTRACTION``
times the previous one or meets ``cfg.residual_tolerance``.  At the
first update that does not, or when the kept phase's iterations run
out, it drops that update and goes on from the last kept iterate with
the damped phase: a fresh FD Jacobian every iteration, solved with
directly, its update halved while the residual norm fails to fall.  A
solve that ends there stores the inverse of its last Jacobian, which
the solve has just factored, so it inverts.  Each phase has
``cfg.max_iterations`` iterations; only the damped one raises
``NewtonError``, and a cache it raises through holds the inverse as
the kept phase left it, or none.  A trapezoidal step of another ``h``
drops the kept inverse.

So the kept phase pays no factorisation: every kept update is one
matrix-vector product, across steps.  Each kept update the contraction
test accepts refines the stored inverse by Broyden's rank-one secant
update, so that it maps the update's change of residual onto the update
itself.  The kept phase converges superlinearly where the stale
Jacobian alone contracts only linearly, and the next step starts from
the refined inverse, at no extra residual evaluation.

``trapezoidal_dae_step`` runs the Newton with ``NewtonConfig()`` unless
handed another config.  It returns a finite step or raises
``OverflowError``, which ``cosim.march`` classifies as divergence.
Like the Dormand-Prince steps, chained trapezoidal steps are first same
as last: ``f`` takes no input, so ``f`` at a step's end point, which the
Newton's last residual evaluated, is the next step's ``f(x0, y0)``
whatever input that step holds.  The ``JacobianCache`` keeps the end
point and ``f`` there, and a step that starts from that point, the very
arrays or a bitwise copy, takes it instead of evaluating ``f`` again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    """Semi-explicit DAE  x' = f(x, y),  0 = g(x, y, u).

    Subclasses define ``f`` and ``g`` and the dimensions ``n_x``, ``n_y``.
    ``n_y`` may be zero, in which case ``g`` is never called.  The input
    ``u`` enters through ``g`` alone.  ``f`` returns a new array each
    call, writes into neither argument, and gives bitwise the same value
    at the same point: ``trapezoidal_dae_step`` relies on all three when
    it reuses one step's end-point ``f`` as the next step's start.  A
    system whose ``f`` an event changes at a fixed point drops the
    cache's ``end`` on the step that ``march`` tells of the event.
    """

    n_x: int
    n_y: int

    def f(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
                 r0: np.ndarray, cache: "JacobianCache") -> np.ndarray:
    """Forward-difference Jacobian at ``z``; counts each residual in
    ``cache`` before evaluating it."""
    n = z.size
    jac = np.empty((r0.size, n))
    for k in range(n):
        dz = _FD_EPSILON * max(1.0, abs(z[k]))
        zp = z.copy()
        zp[k] += dz
        cache.residual_evals += 1
        jac[:, k] = (res(zp) - r0) / dz
    return jac


@np.errstate(over="ignore", invalid="ignore")
def _secant_update(inv: np.ndarray, s: np.ndarray,
                   yv: np.ndarray) -> np.ndarray:
    """Broyden's good update of the inverse ``inv`` for the step ``s``
    that changed the residual by ``yv``; returns the updated inverse.

    The Sherman-Morrison form of the rank-one secant update (Broyden,
    1965; Kelley, *Solving Nonlinear Equations with Newton's Method*,
    2003, ch. 7), inv + outer(s - inv @ yv, s @ inv) / (s @ inv @ yv),
    added to ``inv`` in place as numpy's outer product: afterwards
    ``inv @ yv == s`` to rounding.  A zero or non-finite denominator,
    overflow included, leaves ``inv`` as it is.
    """
    hy = inv @ yv
    sh = s @ inv
    den = sh @ yv
    if den != 0.0 and math.isfinite(den):
        # numpy's outer product added in place: no second n x n array
        inv += np.multiply.outer((1.0 / den) * (s - hy), sh)
    return inv


class JacobianCache:
    """The kept Jacobian of one residual, as its inverse, for the next
    solve.

    ``inv`` is the inverse of the last FD Jacobian a damped solve built,
    as every accepted kept update since has refined it by one secant
    update, or ``None``.  ``h`` is the trapezoidal step it was built
    for.  The counters add up over every solve handed the cache:
    Jacobian builds, residual evaluations, solves that started with a
    kept inverse and built none, and solves whose kept update was
    dropped.

    ``end`` is ``(x1, y1, f1)``: the read-only end point the last
    trapezoidal step returned and ``f`` there, or ``None``.  It is
    independent of ``h`` and of the input, so a cache serves the steps
    of one system only.
    """

    def __init__(self):
        self.inv: np.ndarray | None = None
        self.h: float | None = None
        self.end: tuple | None = None
        self.jacobian_builds = 0
        self.residual_evals = 0
        self.reused_steps = 0
        self.fallbacks = 0

    def counters(self) -> dict[str, int]:
        return {"jacobian_builds": self.jacobian_builds,
                "residual_evals": self.residual_evals,
                "reused_steps": self.reused_steps,
                "fallbacks": self.fallbacks}


def newton_solve(res: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
                 cfg: NewtonConfig,
                 cache: JacobianCache | None = None) -> np.ndarray:
    """Newton on res(z) = 0 starting from z0; see the module docstring.

    ``cache`` holds the inverse the solve starts with, keeps the inverse
    of the last Jacobian it builds, and counts the work.  Without one the
    solve starts with no inverse: the damped Newton alone.
    """
    if cache is None:
        cache = JacobianCache()
    tol = cfg.residual_tolerance
    # each residual is counted before it is evaluated, so a residual that
    # raises counts too
    z = z0.copy()
    cache.residual_evals += 1
    r = res(z)
    rnorm = math.sqrt(r @ r)  # np.linalg.norm's own sum, without its wrapper
    if cache.inv is not None:
        # the kept phase: undamped updates while they contract
        for _ in range(cfg.max_iterations):
            if rnorm <= tol:
                break
            dz = cache.inv @ -r
            z_new = z + dz
            cache.residual_evals += 1
            r_new = res(z_new)
            rnorm_new = math.sqrt(r_new @ r_new)
            # an update that already meets the tolerance is kept however
            # little it contracted
            if not (math.isfinite(rnorm_new)
                    and rnorm_new <= max(CONTRACTION * rnorm, tol)):
                break
            cache.inv = _secant_update(cache.inv, dz, r_new - r)
            z, r, rnorm = z_new, r_new, rnorm_new
        if rnorm <= tol:
            cache.reused_steps += 1
            return z
        cache.fallbacks += 1
    # the damped phase, from the last kept iterate
    jac = None
    left = cfg.max_iterations
    while not rnorm <= tol:  # a nan norm goes on
        if not left:
            raise NewtonError("Newton did not converge", rnorm)
        left -= 1
        jac = _fd_jacobian(res, z, r, cache)
        cache.jacobian_builds += 1
        try:
            dz = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}", rnorm) from exc
        # halve the update while the residual norm fails to decrease
        step = 1.0
        for _ in range(_MAX_DAMPING_HALVINGS + 1):
            z_new = z + step * dz
            cache.residual_evals += 1
            r_new = res(z_new)
            rnorm_new = math.sqrt(r_new @ r_new)
            if math.isfinite(rnorm_new) and rnorm_new < rnorm:
                break
            step *= 0.5
        z, r, rnorm = z_new, r_new, rnorm_new
    if jac is not None:
        # the solve above factored it, so it inverts
        cache.inv = np.linalg.inv(jac)
    return z


_DEFAULT_NEWTON = NewtonConfig()


def trapezoidal_dae_step(sys: DaeSystem, x: np.ndarray, y: np.ndarray, u,
                         h: float, cfg: NewtonConfig = _DEFAULT_NEWTON,
                         cache: JacobianCache | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """One implicit trapezoidal step of the DAE, input u held constant.

    Solves x1 = x + h/2 (f(x,y) + f(x1,y1)) together with
    g(x1,y1,u) = 0 on the stacked residual with ``newton_solve``, from
    the explicit Euler predictor.  ``cache`` carries the kept inverse
    from one step to the next; a step of another ``h`` drops it.  A step
    handed no cache takes a fresh one, as ``newton_solve`` does: it runs
    the damped Newton with a fresh FD Jacobian each iteration and keeps
    nothing.  Either way the root meets the same residual tolerance.

    The returned ``(x1, y1)`` are new read-only arrays.  ``cache.end``
    keeps them with ``f(x1, y1)``, which the Newton's last residual
    evaluated, and the next step takes that value for ``f(x, y)`` when it
    starts from those arrays or from bitwise copies.
    Any other start, the first step's or one moved by ``set_state``,
    ``rotate``, ``initialize`` or an event, evaluates ``f``.
    """
    if cache is None:
        cache = JacobianCache()
    if h != cache.h:
        cache.inv, cache.h = None, h
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    end = cache.end
    if end is not None and (
            (x is end[0] and y is end[1])
            or (x.tobytes() == end[0].tobytes()
                and y.tobytes() == end[1].tobytes())):
        f0 = end[2]
    else:
        f0 = sys.f(x, y)
    nx, ny = x.size, y.size
    last = [None, None]  # the point the residual last saw, and f there

    def residual(z):
        x1, y1 = z[:nx], z[nx:]
        f1 = sys.f(x1, y1)
        last[0], last[1] = z, f1
        rx = x1 - x - 0.5 * h * (f0 + f1)
        if ny:
            return np.concatenate([rx, sys.g(x1, y1, u)])
        return rx

    z0 = np.concatenate([x + h * f0, y]) if ny else x + h * f0
    z = newton_solve(residual, z0, cfg, cache)
    if not np.isfinite(z).all():
        raise OverflowError("trapezoidal step is non-finite")
    x1, y1 = z[:nx].copy(), z[nx:].copy()
    x1.flags.writeable = y1.flags.writeable = False
    # newton_solve returns the last point it evaluated; should that ever
    # not hold, nothing is kept
    cache.end = (x1, y1, last[1]) if last[0] is z else None
    return x1, y1


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


def _dp_step(deriv, e, s, u, dt, k1e, k1s):
    """One Dormand-Prince step from (``e``, ``s``), whose derivative
    (``k1e``, ``k1s``) is given.

    Returns the 5th order result, its error estimate and the derivative
    at the result, each as a (complex, real) pair, flat: (e5, s5, err_e,
    err_s, k7e, k7s).  The last stage is taken at the 5th order result,
    so its derivative is the next step's first (first same as last).
    """
    k2e, k2s = deriv(e + dt * (A21 * k1e), s + dt * (A21 * k1s), u)
    k3e, k3s = deriv(e + dt * (A31 * k1e + A32 * k2e),
                     s + dt * (A31 * k1s + A32 * k2s), u)
    k4e, k4s = deriv(e + dt * (A41 * k1e + A42 * k2e + A43 * k3e),
                     s + dt * (A41 * k1s + A42 * k2s + A43 * k3s), u)
    k5e, k5s = deriv(
        e + dt * (A51 * k1e + A52 * k2e + A53 * k3e + A54 * k4e),
        s + dt * (A51 * k1s + A52 * k2s + A53 * k3s + A54 * k4s), u)
    k6e, k6s = deriv(
        e + dt * (A61 * k1e + A62 * k2e + A63 * k3e + A64 * k4e
                  + A65 * k5e),
        s + dt * (A61 * k1s + A62 * k2s + A63 * k3s + A64 * k4s
                  + A65 * k5s), u)
    e5 = e + dt * (B1 * k1e + B3 * k3e + B4 * k4e + B5 * k5e + B6 * k6e)
    s5 = s + dt * (B1 * k1s + B3 * k3s + B4 * k4s + B5 * k5s + B6 * k6s)
    k7e, k7s = deriv(e5, s5, u)
    err_e = dt * (E1 * k1e + E3 * k3e + E4 * k4e + E5 * k5e + E6 * k6e
                  + E7 * k7e)
    err_s = dt * (E1 * k1s + E3 * k3s + E4 * k4s + E5 * k5s + E6 * k6s
                  + E7 * k7s)
    return e5, s5, err_e, err_s, k7e, k7s


def rk_component_step(deriv: Callable, e: complex, s: float, u, h: float,
                      tol: float) -> tuple[complex, float]:
    """Integrate (e, s)' = deriv(e, s, u) from 0 to h, input u held constant.

    ``e`` is a Python complex and ``s`` a Python float; ``deriv`` takes
    them and ``u`` and returns their derivatives as a (complex, float)
    pair, and so does this function at h.  Adaptive Dormand-Prince 4(5)
    with proportional step control keeping the local error, scaled by
    tol * max(1, |x_j|), at most one in RMS over the three real
    components x_j: re e, im e and s.

    The arithmetic is on Python scalars: a float ``**`` that overflows
    inside ``deriv`` raises ``OverflowError``, which ``cosim.march``
    classifies as divergence, and a step whose error is not finite is
    rejected until the step size underflows (``StiffnessError``).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    ke, ks = deriv(e, s, u)
    t = 0.0
    dt = h
    while t < h - 1e-15 * h:
        dt = min(dt, h - t)
        e_new, s_new, err_e, err_s, k7e, k7s = _dp_step(
            deriv, e, s, u, dt, ke, ks)
        # the error scale tol * max(1, |x_j|), written out as the builtin
        # compares (|x_j| if |x_j| > 1 else 1, nan included)
        ar, ai, a_s = abs(e.real), abs(e.imag), abs(s)
        qr = err_e.real / (tol * (ar if ar > 1.0 else 1.0))
        qi = err_e.imag / (tol * (ai if ai > 1.0 else 1.0))
        qs = err_s / (tol * (a_s if a_s > 1.0 else 1.0))
        enorm = math.sqrt((qr * qr + qi * qi + qs * qs) / 3)
        if enorm <= 1.0 or dt <= h * 1e-12:
            if dt <= h * 1e-12 and enorm > 1.0:
                raise StiffnessError("step size underflow in RK integrator")
            t += dt
            e, s, ke, ks = e_new, s_new, k7e, k7s
            dt *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
        else:
            # a rejected step retries from the same (e, s), so k1 stands
            dt *= max(0.2, 0.9 * (1.0 / enorm) ** 0.2)
            if dt < h * 1e-12:
                raise StiffnessError("step size underflow in RK integrator")
    return e, s
