"""Numerical kernels for sub-system solvers.

``newton_solve`` is the package's damped Newton, with a
finite-difference Jacobian.  It solves the steady-state power flow
(``power_network.newton_power_flow``) and each implicit trapezoidal step
of a small dense DAE, on the stacked residual.  ``rk_component_step`` is
an adaptive embedded Runge-Kutta 4(5) (Dormand-Prince) integrator for
node-level component dynamics.  All systems here are small and dense; no
sparsity is exploited.

A trapezoidal step handed a ``JacobianCache`` first tries the simplified
(modified) Newton of DASSL and of Hairer & Wanner: it iterates from the
predictor with the cached Jacobian, and keeps each update only while the
residual norm stays finite and falls to at most ``CONTRACTION`` times the
previous one.  At the first update that does not, or on a singular
solve, it drops the attempt and solves the step again from the predictor
with the full damped Newton (a fresh Jacobian every iteration), whose
last Jacobian it caches.  Only that full Newton raises ``NewtonError``.
A step of another ``h`` drops the cached Jacobian.
"""

from __future__ import annotations

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
    fd_epsilon: float = 1e-7
    max_damping_halvings: int = 6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tolerance <= 0 or self.fd_epsilon <= 0:
            raise ValueError("tolerances must be positive")


def _fd_jacobian(res: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                 r0: np.ndarray, eps: float) -> np.ndarray:
    n = z.size
    jac = np.empty((r0.size, n))
    for k in range(n):
        dz = eps * max(1.0, abs(z[k]))
        zp = z.copy()
        zp[k] += dz
        jac[:, k] = (res(zp) - r0) / dz
    return jac


# a reused Jacobian is kept while every update shrinks the residual norm
# to at most this fraction of the one before
CONTRACTION = 0.5


class JacobianCache:
    """The last FD Jacobian of one DAE's trapezoidal residual, for reuse.

    ``h`` is the step the Jacobian was built for.  The counters add up
    over every step solved through the cache: Jacobian builds, residual
    evaluations, steps solved with the cached Jacobian, and fallbacks to
    the full Newton after a reuse attempt was dropped.
    """

    def __init__(self):
        self.jac: np.ndarray | None = None
        self.h: float | None = None
        self.jacobian_builds = 0
        self.residual_evals = 0
        self.reused_steps = 0
        self.fallbacks = 0

    def clear(self) -> None:
        """Drop the Jacobian; the next step builds a fresh one."""
        self.jac = None

    def counters(self) -> dict[str, int]:
        return {"jacobian_builds": self.jacobian_builds,
                "residual_evals": self.residual_evals,
                "reused_steps": self.reused_steps,
                "fallbacks": self.fallbacks}

    def solve(self, res: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
              h: float, cfg: NewtonConfig) -> np.ndarray:
        """res(z) = 0 from z0: reuse the Jacobian, else the full Newton."""
        def counted(z):
            self.residual_evals += 1
            return res(z)

        if h != self.h:
            self.jac, self.h = None, h
        if self.jac is not None:
            z = _reuse_solve(counted, z0, self.jac, cfg)
            if z is not None:
                self.reused_steps += 1
                return z
            self.fallbacks += 1
        return newton_solve(counted, z0, cfg, self)


def _reuse_solve(res, z0, jac, cfg):
    """Simplified Newton with a fixed Jacobian, or None once an update
    is singular or fails to contract, or the iterations run out."""
    z = z0.copy()
    r = res(z)
    rnorm = np.linalg.norm(r)
    for _ in range(cfg.max_iterations):
        if rnorm <= cfg.residual_tolerance:
            return z
        try:
            z = z + np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        r = res(z)
        rnorm_new = np.linalg.norm(r)
        if not (np.isfinite(rnorm_new) and rnorm_new <= CONTRACTION * rnorm):
            return None
        rnorm = rnorm_new
    return z if rnorm <= cfg.residual_tolerance else None


def newton_solve(res: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
                 cfg: NewtonConfig,
                 cache: JacobianCache | None = None) -> np.ndarray:
    """Damped Newton on res(z) = 0 starting from z0.

    ``cache``, when given, keeps every Jacobian built, the last one
    winning, and counts the builds.
    """
    z = z0.copy()
    r = res(z)
    rnorm = np.linalg.norm(r)
    for _ in range(cfg.max_iterations):
        if rnorm <= cfg.residual_tolerance:
            return z
        jac = _fd_jacobian(res, z, r, cfg.fd_epsilon)
        if cache is not None:
            cache.jac = jac
            cache.jacobian_builds += 1
        try:
            dz = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}", rnorm) from exc
        # halve the update while the residual norm fails to decrease
        step = 1.0
        for _ in range(cfg.max_damping_halvings + 1):
            z_new = z + step * dz
            r_new = res(z_new)
            rnorm_new = np.linalg.norm(r_new)
            if np.isfinite(rnorm_new) and rnorm_new < rnorm:
                break
            step *= 0.5
        z, r, rnorm = z_new, r_new, rnorm_new
    if rnorm <= cfg.residual_tolerance:
        return z
    raise NewtonError("Newton did not converge", rnorm)


def trapezoidal_dae_step(sys: DaeSystem, x: np.ndarray, y: np.ndarray, u,
                         h: float, cfg: NewtonConfig | None = None,
                         cache: JacobianCache | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """One implicit trapezoidal step of the DAE, input u held constant.

    Solves x1 = x + h/2 (f(x,y,u) + f(x1,y1,u)) together with
    g(x1,y1,u) = 0 on the stacked residual, from the explicit Euler
    predictor.  Without ``cache`` every step runs the damped Newton with
    a fresh FD Jacobian each iteration.  With one it first iterates with
    the cached Jacobian and falls back to that full Newton when an update
    leaves the residual norm above ``CONTRACTION`` times the previous one
    (see the module docstring).  Either way the root meets the same residual
    tolerance.
    """
    if cfg is None:
        cfg = NewtonConfig()
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
    if cache is None:
        z = newton_solve(residual, z0, cfg)
    else:
        z = cache.solve(residual, z0, h, cfg)
    return z[:nx].copy(), z[nx:].copy()


# Dormand-Prince 4(5) coefficients
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(deriv, x, u, dt):
    """One Dormand-Prince step; returns (5th order result, error estimate)."""
    k = [np.asarray(deriv(x, u), dtype=float)]
    for i in range(1, 7):
        xi = x + dt * sum(a * kj for a, kj in zip(_DP_A[i], k))
        k.append(np.asarray(deriv(xi, u), dtype=float))
    k = np.array(k)
    x5 = x + dt * (_DP_B5 @ k)
    err = dt * ((_DP_B5 - _DP_B4) @ k)
    return x5, err


def rk_component_step(deriv: Callable, x: np.ndarray, u, h: float,
                      tol: float = 1e-6,
                      fixed_step: float | None = None) -> np.ndarray:
    """Integrate x' = deriv(x, u) from 0 to h, input u held constant.

    Adaptive Dormand-Prince 4(5) with proportional step control keeping the
    local error per step below tol.  A fixed internal step size can be
    forced (used for order verification); error control is then disabled.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    t = 0.0
    if fixed_step is not None:
        n = max(1, int(round(h / fixed_step)))
        dt = h / n
        for _ in range(n):
            x, _ = _dp_step(deriv, x, u, dt)
        return x
    dt = h
    while t < h - 1e-15 * h:
        dt = min(dt, h - t)
        x_new, err = _dp_step(deriv, x, u, dt)
        scale = tol * np.maximum(1.0, np.abs(x))
        enorm = np.sqrt(np.mean((err / scale) ** 2)) if x.size else 0.0
        if enorm <= 1.0 or dt <= h * 1e-12:
            if dt <= h * 1e-12 and enorm > 1.0:
                raise StiffnessError("step size underflow in RK integrator")
            t += dt
            x = x_new
            dt *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
        else:
            dt *= max(0.2, 0.9 * (1.0 / enorm) ** 0.2)
            if dt < h * 1e-12:
                raise StiffnessError("step size underflow in RK integrator")
    return x
