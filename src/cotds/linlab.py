"""Linear two-state coupled test system and numerical stability analysis.

A two-variable linear ODE

    x_a' = lambda_a * x_a - k_a * x_b
    x_b' = lambda_b * x_b + k_b * x_a

is split into an A sub-system (solved by implicit trapezoidal over the
macro step H) and a B sub-system (solved by n explicit Euler micro steps
of size h = H/n).  Two coupling schedules are analyzed: parallel (both
sub-systems use the other's start-of-step output) and series (B uses the
freshly computed A value).  Each scheme is a linear one-step map, so its
stability is governed by the spectral radius of the exact 2x2 step matrix.

The two halves are ``cosim`` sub-systems (``make_linear_pair``, A the
hub and B its one spoke), and ``simulate_linear`` marches them: the
co-simulation schemes through ``cosim.run_cosimulation``, the total
trapezoidal scheme by a direct 2x2 solve over the same pair.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cosim import (CouplingMethod, CouplingSchedule, SubSystem, march,
                    run_cosimulation)

__all__ = [
    "LinearCoupledParams",
    "StateVec2",
    "StepConfig",
    "SchemeId",
    "system_matrix",
    "analytic_solution",
    "trapezoidal_half_step",
    "euler_half_step",
    "build_M_total",
    "build_M_cosim_parallel",
    "build_M_cosim_series",
    "build_step_matrix",
    "spectral_radius",
    "local_truncation_error",
    "stability_sweep",
    "find_stability_threshold",
    "simulate_linear",
    "LinearTrajectory",
    "LinearHalf",
    "make_linear_pair",
]


@dataclass(frozen=True)
class LinearCoupledParams:
    """Parameters (lambda_a, lambda_b, k_a, k_b) of the coupled test system.

    Both decay rates must be negative and both coupling gains positive,
    which makes the continuous system Hurwitz for every parameter choice.
    """

    lambda_a: float
    lambda_b: float
    k_a: float
    k_b: float

    def __post_init__(self):
        if not (self.lambda_a < 0 and self.lambda_b < 0):
            raise ValueError("decay rates lambda_a, lambda_b must be negative")
        if not (self.k_a > 0 and self.k_b > 0):
            raise ValueError("coupling gains k_a, k_b must be positive")


@dataclass(frozen=True)
class StateVec2:
    """State (x_a, x_b) of the coupled test system."""

    x_a: float
    x_b: float

    def __post_init__(self):
        if not (math.isfinite(self.x_a) and math.isfinite(self.x_b)):
            raise ValueError("state components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x_a, self.x_b], dtype=float)

    @staticmethod
    def from_array(v) -> "StateVec2":
        return StateVec2(float(v[0]), float(v[1]))


@dataclass(frozen=True)
class StepConfig:
    """Macro step H and micro-step count n (micro step h = H/n)."""

    h_macro: float
    n_micro: int = 100

    def __post_init__(self):
        if self.h_macro <= 0:
            raise ValueError("h_macro must be positive")
        if self.n_micro < 1:
            raise ValueError("n_micro must be >= 1")

    @property
    def h_micro(self) -> float:
        return self.h_macro / self.n_micro


class SchemeId(enum.Enum):
    TOTAL_TRAPEZOIDAL = "total"
    COSIM_PARALLEL = "parallel"
    COSIM_SERIES = "series"


def system_matrix(p: LinearCoupledParams) -> np.ndarray:
    """Continuous-time system matrix [[la, -ka], [kb, lb]]."""
    return np.array([[p.lambda_a, -p.k_a], [p.k_b, p.lambda_b]], dtype=float)


def analytic_solution(p: LinearCoupledParams, x0: StateVec2, t: float) -> StateVec2:
    """Exact solution exp(A t) x0 via closed-form 2x2 matrix exponential.

    Writes A = m*I + (A - m*I) with m = tr(A)/2; the deviatoric part
    squares to disc*I with disc = m^2 - det(A), so the exponential is
    cosh/sinh (disc > 0), cos/sin (disc < 0) or the linear limit (disc = 0).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and non-negative")
    a = system_matrix(p)
    m = 0.5 * (a[0, 0] + a[1, 1])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = m * m - det
    n = a - m * np.eye(2)
    if disc > 0:
        q = math.sqrt(disc)
        c, s = math.cosh(q * t), math.sinh(q * t) / q
    elif disc < 0:
        q = math.sqrt(-disc)
        c, s = math.cos(q * t), math.sin(q * t) / q
    else:
        c, s = 1.0, t
    e = math.exp(m * t) * (c * np.eye(2) + s * n)
    return StateVec2.from_array(e @ x0.as_array())


def _euler_growth(p: LinearCoupledParams, cfg: StepConfig) -> float:
    """(1 + h*lambda_b)^n, the B sub-system micro-integration growth factor."""
    return (1.0 + cfg.h_micro * p.lambda_b) ** cfg.n_micro


def _coupling_weight(p: LinearCoupledParams, cfg: StepConfig) -> float:
    """(k_b/lambda_b) * ((1 + h*lambda_b)^n - 1).

    Exact accumulated weight of the (constant) A-side input over n Euler
    micro steps of the B sub-system.
    """
    return (p.k_b / p.lambda_b) * (_euler_growth(p, cfg) - 1.0)


def build_M_total(p: LinearCoupledParams, h_macro: float) -> np.ndarray:
    """One-step matrix of the implicit trapezoidal method on the full system."""
    if h_macro <= 0:
        raise ValueError("h_macro must be positive")
    a = system_matrix(p)
    lhs = np.eye(2) - 0.5 * h_macro * a
    rhs = np.eye(2) + 0.5 * h_macro * a
    det = lhs[0, 0] * lhs[1, 1] - lhs[0, 1] * lhs[1, 0]
    if det == 0.0:
        raise ZeroDivisionError("trapezoidal step matrix is singular at this H")
    return np.linalg.solve(lhs, rhs)


def build_M_cosim_parallel(p: LinearCoupledParams, cfg: StepConfig) -> np.ndarray:
    """One-step matrix of the parallel (Jacobi) coupling schedule.

    The A row carries -k_a*H off-diagonal: the frozen x_b enters both
    halves of the trapezoidal update.  The B row is the exact n-step
    Euler map driven by the start-of-step x_a.
    """
    h = cfg.h_macro
    g = _euler_growth(p, cfg)
    w = _coupling_weight(p, cfg)
    lhs = np.array([[1.0 - 0.5 * p.lambda_a * h, 0.0], [0.0, 1.0]])
    rhs = np.array([[1.0 + 0.5 * p.lambda_a * h, -p.k_a * h], [w, g]])
    return np.linalg.solve(lhs, rhs)


def build_M_cosim_series(p: LinearCoupledParams, cfg: StepConfig) -> np.ndarray:
    """One-step matrix of the series (Gauss-Seidel) coupling schedule.

    Identical to the parallel matrix except that the B micro-integration
    is driven by the end-of-step x_a, which moves the coupling weight to
    the left-hand side.
    """
    h = cfg.h_macro
    g = _euler_growth(p, cfg)
    w = _coupling_weight(p, cfg)
    lhs = np.array([[1.0 - 0.5 * p.lambda_a * h, 0.0], [-w, 1.0]])
    rhs = np.array([[1.0 + 0.5 * p.lambda_a * h, -p.k_a * h], [0.0, g]])
    return np.linalg.solve(lhs, rhs)


def build_step_matrix(p: LinearCoupledParams, cfg: StepConfig,
                      scheme: SchemeId) -> np.ndarray:
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        return build_M_total(p, cfg.h_macro)
    if scheme is SchemeId.COSIM_PARALLEL:
        return build_M_cosim_parallel(p, cfg)
    return build_M_cosim_series(p, cfg)


def trapezoidal_half_step(lam: float, h: float, x: float, u: float) -> float:
    """x' = lam*x + u over h by one implicit trapezoidal step, u frozen.

    The A half's step: (1 - 0.5*lam*h) x+ = (1 + 0.5*lam*h) x + h*u.
    """
    return ((1.0 + 0.5 * lam * h) * x + h * u) / (1.0 - 0.5 * lam * h)


def euler_half_step(lam: float, h: float, n: int, x: float, u: float) -> float:
    """x' = lam*x + u over h by n explicit Euler micro steps, u frozen.

    The B half's step, in exact closed form.
    """
    g = (1.0 + (h / n) * lam) ** n
    return g * x + (u / lam) * (g - 1.0)


class LinearHalf(SubSystem):
    """x' = lambda*x + u, taken over each macro step by ``step(h, x, u)``;
    a non-finite state is recorded, and ``march`` ends the run there."""

    def __init__(self, step: Callable[[float, float, float], float],
                 k_out: float, x0: float, u0: float):
        self.step = step
        self.k_out = k_out
        self.x = x0
        self.current_input = np.array([u0])

    def advance(self, h):
        self.x = self.step(h, self.x, float(self.current_input[0]))

    def output(self):
        return np.array([self.k_out * self.x])

    def snapshot(self):
        return {"x": self.x}


def make_linear_pair(p: LinearCoupledParams, x0: StateVec2, n_micro: int = 100):
    """The hub A and its spoke B realizing the coupled test system.

    A takes one implicit trapezoidal step per macro step, B ``n_micro``
    explicit Euler micro steps.  A outputs y_a = k_b*x_a, B's input; B
    outputs y_b = -k_a*x_b, A's input.  Initial inputs match the initial
    outputs, so the pair starts interface-consistent at any x0.
    """
    def b_step(h, x, u):
        return euler_half_step(p.lambda_b, h, n_micro, x, u)

    a = LinearHalf(functools.partial(trapezoidal_half_step, p.lambda_a),
                   p.k_b, x0.x_a, u0=-(p.k_a * x0.x_b))
    b = LinearHalf(b_step, -p.k_a, x0.x_b, u0=p.k_b * x0.x_a)
    return {"A": a, "B": b}


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a 2x2 matrix, closed form.

    For a complex-conjugate pair both magnitudes equal sqrt(det).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 2x2 matrix")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = 0.25 * tr * tr - det
    if disc >= 0:
        q = math.sqrt(disc)
        return max(abs(0.5 * tr + q), abs(0.5 * tr - q))
    return math.sqrt(det)


def local_truncation_error(p: LinearCoupledParams, x0: StateVec2, h_macro: float,
                           scheme: SchemeId, n_micro: int = 100) -> StateVec2:
    """Per-step defect (x_true(H) - x0)/H - phi(x0, H) of the scheme.

    The increment function phi is (step(x0) - x0)/H, so the defect reduces
    to (x_true(H) - step(x0))/H, the step being one macro step of
    ``simulate_linear``.
    """
    traj = simulate_linear(p, x0, h_macro, n_micro, h_macro, scheme)
    if traj.diverged:
        raise OverflowError("the scheme's step is non-finite at this H")
    true = analytic_solution(p, x0, h_macro).as_array()
    return StateVec2.from_array((true - traj.states[-1]) / h_macro)


def _radius(p: LinearCoupledParams, scheme: SchemeId, n_micro: int,
            h: float) -> float:
    """Spectral radius of the scheme's step matrix at macro step ``h``."""
    return spectral_radius(build_step_matrix(p, StepConfig(h, n_micro), scheme))


def stability_sweep(p: LinearCoupledParams, scheme: SchemeId, n_micro: int,
                    h_grid) -> list[tuple[float, float]]:
    """(H, spectral radius) pairs of the scheme's step matrix over a grid."""
    out = []
    for h in h_grid:
        if h <= 0:
            raise ValueError("grid values must be positive")
        out.append((float(h), _radius(p, scheme, n_micro, h)))
    return out


def find_stability_threshold(p: LinearCoupledParams, scheme: SchemeId,
                             n_micro: int = 100, h_max: float = 50.0,
                             tol: float = 1e-10) -> float:
    """Smallest H where the spectral radius crosses 1, by scan + bisection.

    Returns h_max when the scheme stays stable on the whole (0, h_max]
    range (the trapezoidal baseline always does).
    """
    rho = functools.partial(_radius, p, scheme, n_micro)
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


@dataclass
class LinearTrajectory:
    """Fixed-grid trajectory of the linear test system; divergence is data."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2)
    diverged: bool


def _total_trapezoidal_step(p: LinearCoupledParams, pair):
    """``step(h)``: the implicit trapezoidal step on the full system, a
    direct 2x2 solve over the pair's states."""
    a_half, b_half = pair["A"], pair["B"]
    a = system_matrix(p)

    def step(h):
        s = np.array([a_half.x, b_half.x])
        lhs = np.eye(2) - 0.5 * h * a
        a_half.x, b_half.x = np.linalg.solve(lhs, s + 0.5 * h * (a @ s))

    return step


def simulate_linear(p: LinearCoupledParams, x0: StateVec2, h_macro: float,
                    n_micro: int, t_end: float, scheme: SchemeId) -> LinearTrajectory:
    """March the scheme from t=0 to t_end, recording every macro step.

    A non-finite state truncates the run and sets the divergence flag
    instead of raising.
    """
    cfg = StepConfig(h_macro, n_micro)
    schedule = CouplingSchedule(cfg.h_macro, t_end)
    pair = make_linear_pair(p, x0, cfg.n_micro)
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        log = march(schedule, pair, _total_trapezoidal_step(p, pair))
    else:
        log = run_cosimulation(schedule, pair, CouplingMethod(scheme.value))
    cols = [log.columns.index("A.x"), log.columns.index("B.x")]
    return LinearTrajectory(log.time_array, log.as_array()[:, cols],
                            log.diverged)
