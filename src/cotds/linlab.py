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

Each step matrix is written once, in closed form (``_step_entries``):
Cramer's rule for the total trapezoidal scheme, a diagonal (parallel) or
lower-triangular (series) left-hand side for the co-simulation schemes.
The entries take H as a Python float or as a numpy array of them, and n
as a number: ``build_step_matrix`` passes a ``StepConfig``'s and wraps
the entries as an array; the threshold search checks its arguments once
and takes the closed-form radius of the entries on Python floats, with
no ``StepConfig``, array or linear solve per H; ``stability_sweep``
checks its grid once and evaluates the entries and their radii over the
whole grid in one array pass.  The
threshold search (``_first_crossing``) brackets the first H where the
radius reaches 1 by doubling H and then bisects the bracket, about 12
radius evaluations to bracket and 40 to bisect.  Entries that overflow,
through the growth factor or past it, are an ``OverflowError`` in both.

The two halves are ``cosim`` sub-systems (``make_linear_pair``, A the
hub and B its one spoke) whose interface vectors are one-float lists,
and ``simulate_linear`` marches them: the co-simulation schemes through
``cosim.run_cosimulation``, the total trapezoidal scheme by one 2x2
solve per run, then float products over the same pair.  A local
truncation error is one such step, taken once on a fresh pair, against
``analytic_solution``, which is Python float arithmetic too.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cosim import (CouplingMethod, CouplingSchedule, SubSystem,
                    exchange_step, march, run_cosimulation)

__all__ = [
    "LinearCoupledParams",
    "StateVec2",
    "StepConfig",
    "SchemeId",
    "system_matrix",
    "analytic_solution",
    "trapezoidal_half_step",
    "euler_half_step",
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
        if not 0.0 < self.h_macro < math.inf:
            raise ValueError(f"h_macro must be positive and finite, got "
                             f"{self.h_macro!r}")
        _check_n_micro(self.n_micro)

    @property
    def h_micro(self) -> float:
        return self.h_macro / self.n_micro


def _check_n_micro(n_micro: int) -> None:
    """``StepConfig``'s micro-step rule, for the callers that build none."""
    if n_micro < 1:
        raise ValueError("n_micro must be >= 1")


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
    Its four entries and their product with x0 are Python floats.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and non-negative")
    a00, a01, a10, a11 = p.lambda_a, -p.k_a, p.k_b, p.lambda_b
    m = 0.5 * (a00 + a11)
    det = a00 * a11 - a01 * a10
    disc = m * m - det
    if disc > 0:
        q = math.sqrt(disc)
        c, s = math.cosh(q * t), math.sinh(q * t) / q
    elif disc < 0:
        q = math.sqrt(-disc)
        c, s = math.cos(q * t), math.sin(q * t) / q
    else:
        c, s = 1.0, t
    g = math.exp(m * t)
    e00, e01 = g * (c + s * (a00 - m)), g * (s * a01)
    e10, e11 = g * (s * a10), g * (c + s * (a11 - m))
    return StateVec2(e00 * x0.x_a + e01 * x0.x_b, e10 * x0.x_a + e11 * x0.x_b)


def _growth_factor(base: float, n: int, h: float) -> float:
    """base**n by Python's power (libm's ``pow``), the growth factor of
    n Euler micro steps at macro step h; ``OverflowError`` naming h."""
    try:
        return base ** n
    except OverflowError:
        raise OverflowError("the B half's Euler growth factor overflows at "
                            f"H={h}") from None


def _euler_map(p: LinearCoupledParams, h, n: int):
    """(g, w): the B half's n Euler micro steps over the macro step h
    under a frozen x_a, x_b(t + h) = g*x_b(t) + w*x_a.

    g = (1 + (h/n)*lambda_b)^n is the growth factor and
    w = (k_b/lambda_b)*(g - 1) the exact accumulated weight of the
    constant A-side input.  h/n is ``StepConfig.h_micro``'s quotient.
    ``h`` is a float or a float array; an array's g is still taken point
    by point by Python's power, as numpy's ``power`` differs from libm's
    ``pow`` in the last bit for some bases near 1.
    """
    base = 1.0 + (h / n) * p.lambda_b
    if isinstance(base, np.ndarray):
        g = np.array([_growth_factor(b, n, x)
                      for b, x in zip(base.tolist(), h.tolist())])
    else:
        g = _growth_factor(base, n, h)
    return g, (p.k_b / p.lambda_b) * (g - 1.0)


def _step_entries(p: LinearCoupledParams, h, n: int, scheme: SchemeId):
    """Entries (m00, m01, m10, m11) of the scheme's one-step matrix M at
    macro step h and n micro steps, the solution of lhs @ M = rhs, in
    closed form; ``h`` is a positive float, or a float array of them and
    the entries arrays over it.

    Total trapezoidal: lhs = I - H/2*A and rhs = I + H/2*A, solved by
    Cramer's rule; det(lhs) >= 1, as lambda_a, lambda_b < 0 and
    k_a, k_b > 0.  Co-simulation: the A row is the trapezoidal half's,
    whose lhs row is diagonal; the frozen x_b carries -k_a*H.  The B row
    is the Euler map driven by the start-of-step x_a (parallel, a
    diagonal lhs) or by the end-of-step x_a (series, a lower-triangular
    lhs, so the A row is substituted into it).
    """
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        c = 0.5 * h
        l00, l01 = 1.0 - c * p.lambda_a, c * p.k_a
        l10, l11 = -(c * p.k_b), 1.0 - c * p.lambda_b
        r00, r01 = 1.0 + c * p.lambda_a, -(c * p.k_a)
        r10, r11 = c * p.k_b, 1.0 + c * p.lambda_b
        det = l00 * l11 - l01 * l10
        return ((l11 * r00 - l01 * r10) / det, (l11 * r01 - l01 * r11) / det,
                (l00 * r10 - l10 * r00) / det, (l00 * r11 - l10 * r01) / det)
    d = 1.0 - 0.5 * p.lambda_a * h
    m00 = (1.0 + 0.5 * p.lambda_a * h) / d
    m01 = -p.k_a * h / d
    g, w = _euler_map(p, h, n)
    if scheme is SchemeId.COSIM_PARALLEL:
        return m00, m01, w, g
    return m00, m01, w * m00, g + w * m01


def build_step_matrix(p: LinearCoupledParams, cfg: StepConfig,
                      scheme: SchemeId) -> np.ndarray:
    """The scheme's one-step matrix M: x(t + H) = M @ x(t)."""
    m00, m01, m10, m11 = _step_entries(p, cfg.h_macro, cfg.n_micro, scheme)
    return np.array([[m00, m01], [m10, m11]])


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
    a non-finite state is recorded, and ``march`` ends the run there.
    Input ``[u]``, output ``[k_out*x]``; ``state()`` is ``[x, u]``."""

    def __init__(self, step: Callable[[float, float, float], float],
                 k_out: float, x0: float, u0: float):
        self.step = step
        self.k_out = k_out
        self.x = x0
        self.current_input = [float(u0)]

    def advance(self, h):
        self.x = self.step(h, self.x, self.current_input[0])

    def output(self):
        return [self.k_out * self.x]

    def snapshot(self):
        return {"x": self.x}

    def state(self) -> np.ndarray:
        return np.array([self.x, *self.current_input], dtype=float)

    def set_state(self, z) -> None:
        z = self._state_vector(z).tolist()
        self.x = z[0]
        self.current_input = z[1:]


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


def _radius_2x2(a: float, b: float, c: float, d: float) -> float:
    """Largest eigenvalue magnitude of [[a, b], [c, d]], closed form.

    For a complex-conjugate pair both magnitudes equal sqrt(det).
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
            and math.isfinite(d)):
        raise ValueError("expected a finite 2x2 matrix")
    tr = a + d
    det = a * d - b * c
    disc = 0.25 * tr * tr - det
    if disc >= 0:
        q = math.sqrt(disc)
        return max(abs(0.5 * tr + q), abs(0.5 * tr - q))
    return math.sqrt(det)


def _radii_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """``_radius_2x2`` of each matrix [[a[i], b[i]], [c[i], d[i]]], by
    the same float operations on arrays; ``ValueError`` unless every
    entry is finite."""
    if not all(np.isfinite(x).all() for x in (a, b, c, d)):
        raise ValueError("expected a finite 2x2 matrix")
    tr = a + d
    det = a * d - b * c
    disc = 0.25 * tr * tr - det
    q = np.sqrt(np.abs(disc))
    # det > 0 wherever disc < 0, so the clip only keeps the other
    # branch's square root quiet
    return np.where(disc >= 0,
                    np.maximum(np.abs(0.5 * tr + q), np.abs(0.5 * tr - q)),
                    np.sqrt(np.maximum(det, 0.0)))


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a finite 2x2 matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a finite 2x2 matrix")
    return _radius_2x2(*m.ravel().tolist())


def local_truncation_error(p: LinearCoupledParams, x0: StateVec2, h_macro: float,
                           scheme: SchemeId, n_micro: int = 100) -> StateVec2:
    """Per-step defect (x_true(H) - x0)/H - phi(x0, H) of the scheme.

    The increment function phi is (step(x0) - x0)/H, so the defect reduces
    to (x_true(H) - step(x0))/H, the step being the one ``simulate_linear``
    marches, taken once on a fresh pair.  ``OverflowError`` when the step
    overflows or leaves a state or an output non-finite.
    """
    cfg = StepConfig(h_macro, n_micro)
    pair = make_linear_pair(p, x0, cfg.n_micro)
    a, b = pair["A"], pair["B"]
    if scheme is SchemeId.TOTAL_TRAPEZOIDAL:
        step = _total_trapezoidal_step(p, cfg.h_macro, pair)
    else:
        step = exchange_step(pair, CouplingMethod(scheme.value))
    try:
        step(cfg.h_macro, False)
        finite = all(map(math.isfinite, [a.x, b.x, *a.output(),
                                         *b.output()]))
    except OverflowError:
        finite = False
    if not finite:
        raise OverflowError("the scheme's step is non-finite at this H")
    true = analytic_solution(p, x0, cfg.h_macro)
    return StateVec2.from_array([(true.x_a - a.x) / cfg.h_macro,
                                 (true.x_b - b.x) / cfg.h_macro])


def _radius(p: LinearCoupledParams, scheme: SchemeId, n_micro: int,
            h: float) -> float:
    """Spectral radius of the scheme's step matrix at macro step ``h``,
    from its entries; the caller checks ``h`` and ``n_micro``.  ``h`` may
    be a numpy scalar; as a Python float it keeps the entries Python
    floats, which are faster and raise ``OverflowError`` on overflow.
    An entry that overflows to a non-finite value while the growth
    factor stays finite is an ``OverflowError`` too."""
    entries = _step_entries(p, float(h), n_micro, scheme)
    if not all(map(math.isfinite, entries)):
        raise OverflowError(f"the step matrix overflows at H={h}")
    return _radius_2x2(*entries)


def stability_sweep(p: LinearCoupledParams, scheme: SchemeId, n_micro: int,
                    h_grid) -> list[tuple[float, float]]:
    """(H, spectral radius) pairs of the scheme's step matrix over a grid
    of positive, finite H; ``ValueError`` names the first value that is
    not.

    One array pass over the grid, each radius bit-identical to
    ``_radius`` at its H, and as quiet: float overflow is no warning.  An
    error is the first point's, as ``_radius`` point by point raises it:
    an overflowing growth factor or a non-finite entry is replayed that
    way, so the first point that overflows either way names the error.
    """
    hs = [float(h) for h in h_grid]
    for h in hs:
        if not 0.0 < h < math.inf:
            raise ValueError(f"grid values must be positive and finite, "
                             f"got {h!r}")
    _check_n_micro(n_micro)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            entries = _step_entries(p, np.array(hs), n_micro, scheme)
            if not all(np.isfinite(x).all() for x in entries):
                raise OverflowError("the step matrix overflows")
            radii = _radii_2x2(*entries)
    except OverflowError:
        for h in hs:
            _radius(p, scheme, n_micro, h)
        raise
    return list(zip(hs, radii.tolist()))


def _first_crossing(rho: Callable[[float], float], h_lo: float,
                    h_max: float, tol: float) -> float:
    """Where ``rho`` first reaches 1 on [h_lo, h_max], by doubling from
    h_lo to a stable/unstable bracket and bisecting it.

    Returns h_lo if rho(h_lo) >= 1 and h_max if rho(h_max) < 1 at the end
    of the doubling.  Otherwise the bracket [lo, hi] (rho(lo) < 1 <=
    rho(hi)) is halved until hi - lo <= tol*max(1, hi), or until its ends
    are adjacent floats, and its midpoint returned.  That is a crossing of
    rho through 1, and the smallest one whenever rho - 1 changes sign at
    most once between successive doubling points h_lo*2^k.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not 0.0 < h_lo <= h_max < math.inf:
        raise ValueError(f"need 0 < h_lo <= h_max < inf, got h_lo={h_lo!r}, "
                         f"h_max={h_max!r}")
    if rho(h_lo) >= 1.0:
        return h_lo
    lo = h_lo
    while True:
        hi = min(2.0 * lo, h_max)
        if rho(hi) >= 1.0:
            break
        if hi == h_max:
            return h_max
        lo = hi
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if rho(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def find_stability_threshold(p: LinearCoupledParams, scheme: SchemeId,
                             n_micro: int = 100, h_max: float = 50.0,
                             tol: float = 1e-10) -> float:
    """First H in [h_max/2000, h_max] where the scheme's spectral radius
    reaches 1, by doubling from h_max/2000 and bisecting to
    tol*max(1, H) (``_first_crossing``).

    Returns h_max when the scheme is stable at every doubling point (the
    trapezoidal baseline always is), and h_max/2000 when it is unstable
    there.  Any other result is a crossing of the radius through 1, and
    the smallest one whenever rho - 1 changes sign at most once between
    successive doubling points.  Once the B half's Euler factor
    1 + (H/n)*lambda_b is negative (H > n/|lambda_b|) that can fail: for
    (lambda_a, lambda_b, k_a, k_b) = (-3.397430389648027,
    -4.25055915317289, 3.635094230290633, 2.0127088174144214), parallel,
    the radius exceeds 1 by at most 3e-5 on about [44.36, 44.97], which
    the doubling steps over, and the search returns the Euler limit
    2*n_micro/|lambda_b| = 47.05 instead of 44.36.
    """
    _check_n_micro(n_micro)
    return _first_crossing(functools.partial(_radius, p, scheme, n_micro),
                           h_max / 2000.0, h_max, tol)


@dataclass
class LinearTrajectory:
    """Fixed-grid trajectory of the linear test system; divergence is data."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2)
    diverged: bool


def _total_trapezoidal_step(p: LinearCoupledParams, h: float, pair):
    """``step(h, switched)``: the implicit trapezoidal step over ``h`` on
    the full system, applied to the pair's states.

    Its matrix M solves (I - h/2*A) M = (I + h/2*A) by one LAPACK solve,
    independent of ``_step_entries``' Cramer's rule, and each step is
    Python float products by M's entries.
    """
    a_half, b_half = pair["A"], pair["B"]
    a = system_matrix(p)
    m = np.linalg.solve(np.eye(2) - 0.5 * h * a, np.eye(2) + 0.5 * h * a)
    m00, m01, m10, m11 = m.ravel().tolist()

    def step(_h, _switched):  # the march's H, the h M was built for
        xa, xb = a_half.x, b_half.x
        a_half.x = m00 * xa + m01 * xb
        b_half.x = m10 * xa + m11 * xb

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
        log = march(schedule, pair,
                    _total_trapezoidal_step(p, cfg.h_macro, pair))
    else:
        log = run_cosimulation(schedule, pair, CouplingMethod(scheme.value))
    cols = [log.columns.index("A.x"), log.columns.index("B.x")]
    return LinearTrajectory(log.time_array, log.as_array()[:, cols],
                            log.diverged)
