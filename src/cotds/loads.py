"""Static ZIP loads and the third-order induction motor model.

The motor is the standard single-cage reduced model: stator transients
neglected, rotor flux kept as a complex EMF behind transient reactance,
slip governed by the swing equation with a quadratic mechanical torque
characteristic.  Parameters are given on the machine MVA base and scaled
to the system base through ``mva_scale``.

``InductionMotor.derivatives`` and ``terminal_power`` run at every
Runge-Kutta stage and every sweep iteration, on one motor and one
terminal voltage at a time.  At that size numpy's per-call overhead
outweighs the arithmetic, so the motor's circuit constants (``rs + j x'``,
``x0 - x'``, ``T0'``) are computed once when it is built, and both work
in Python scalars: the stator current is a Python complex, and
``derivatives`` takes E' as a Python complex and the slip as a float and
returns their derivatives as a (complex, float) pair, the form
``integrators.rk_component_step`` integrates.  For the same reason both
write the stator current (v - E') / zs out, and the constant factors
j (x0 - x'), 2 H and the MVA scale are made once.  Both must keep each
floating-point operation of the model and its order.  The state a motor
keeps between steps is the array [re E', im E', slip]; ``terminal_power``
takes it as an array or as a list.

``InductionMotor.initialize`` finds the running state in closed form.
At dE'/dt = 0, E' = a v / (b + j c s) with a = j (x0 - x') / zs,
b = 1 + a and c = omega_s T0', and the consumed power is |v|^2 N(s) /
M(s), N and M quadratics in the slip whose coefficients are fixed when
the motor is built.  Drawing a given power is then one quadratic in the
slip, and the stable running slip is its smallest positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ZipLoadParams", "zip_power",
           "InductionMotorParams", "InductionMotor"]


@dataclass(frozen=True)
class ZipLoadParams:
    """Voltage-dependent static load, fractions must sum to one."""

    p0: float
    q0: float
    z_frac: float = 0.0
    i_frac: float = 0.0
    p_frac: float = 1.0

    def __post_init__(self):
        if abs(self.z_frac + self.i_frac + self.p_frac - 1.0) > 1e-12:
            raise ValueError("ZIP fractions must sum to 1")


def zip_power(params: ZipLoadParams, vmag: float) -> complex:
    """Consumed complex power at terminal voltage magnitude ``vmag``."""
    shape = params.z_frac * vmag * vmag + params.i_frac * vmag + params.p_frac
    return complex(params.p0 * shape, params.q0 * shape)


@dataclass(frozen=True)
class InductionMotorParams:
    """Equivalent-circuit data on the machine base plus base scaling.

    The model divides by ``rr``, ``h_m``, ``mva_scale``, ``xm + xr`` and
    the stator impedance ``rs + j x'``, so ``xm``, ``rr``, ``xr``,
    ``h_m`` and ``mva_scale`` must be positive and ``rs`` and ``xs`` not
    negative.  A ``ValueError`` starts with the field's name.
    """

    rs: float
    xs: float
    xm: float
    rr: float
    xr: float
    h_m: float
    mva_scale: float = 1.0   # machine base / system base

    def __post_init__(self):
        for name in ("xm", "rr", "xr", "h_m", "mva_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be positive, got "
                                 f"{getattr(self, name)!r}")
        for name in ("rs", "xs"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must not be negative, got "
                                 f"{getattr(self, name)!r}")

    @property
    def x_p(self) -> float:
        return self.xs + self.xm * self.xr / (self.xm + self.xr)

    @property
    def x_0(self) -> float:
        return self.xs + self.xm

    def t0_p(self, omega_s: float) -> float:
        return (self.xr + self.xm) / (omega_s * self.rr)


class InductionMotor:
    """Third-order motor: state [re E', im E', slip].

    Mechanical torque is ``tm0 * ((1 - s) / (1 - s0))**2`` so the machine
    produces its rated torque at the initialisation slip and can start
    from standstill against a small load torque.
    """

    N_STATES = 3

    def __init__(self, params: InductionMotorParams, omega_s: float):
        self.p = params
        self.omega_s = omega_s
        self.tm0 = 0.0
        self.s0 = 0.0
        # the parameters are frozen, so the circuit constants are fixed:
        # stator impedance rs + j x', x0 - x', and T0'
        self._zs = complex(params.rs, params.x_p)
        self._dx = params.x_0 - params.x_p
        self._t0 = params.t0_p(omega_s)
        # the constant factors of derivatives and terminal_power
        self._jdx = 1j * self._dx
        self._h2 = 2.0 * params.h_m
        self._mva_scale = params.mva_scale
        # the steady state E' = a v / (b + j c s): a = j (x0 - x') / zs,
        # b = 1 + a, c = omega_s T0'
        self._a = 1j * self._dx / self._zs
        self._b = 1.0 + self._a
        self._c = omega_s * self._t0
        # its consumed power |v|^2 N(s) / M(s): the coefficients of N and
        # M in ascending powers of the slip
        rs, xp, x0, c = params.rs, params.x_p, params.x_0, self._c
        self._p_num = (rs, c * self._dx, c * c * rs)
        self._p_den = (rs * rs + x0 * x0, 2.0 * c * rs * self._dx,
                       c * c * (rs * rs + xp * xp))

    # -- electrical interface (machine base internally) -----------------

    def _stator_current(self, e_p: complex, v: complex) -> complex:
        return (v - e_p) / self._zs

    def terminal_power(self, x, v: complex) -> complex:
        """Consumed P + jQ on the *system* base; ``x`` is the state, an
        array or a list."""
        # the stator current, written out: this runs once per sweep pass
        i = (v - complex(x[0], x[1])) / self._zs
        return v * i.conjugate() * self._mva_scale

    def electrical_torque(self, x: np.ndarray, v: complex) -> float:
        e_p = complex(x[0], x[1])
        i = self._stator_current(e_p, v)
        return (e_p * i.conjugate()).real

    def mech_torque(self, slip: float) -> float:
        return self.tm0 * ((1.0 - slip) / (1.0 - self.s0)) ** 2

    def derivatives(self, e_p: complex, slip: float,
                    v: complex) -> tuple[complex, float]:
        """Derivatives of E' (a Python complex) and the slip (a Python
        float), as a (complex, float) pair."""
        # the stator current, written out: this runs once per RK stage
        i = (v - e_p) / self._zs
        de = (-1j * slip * self.omega_s * e_p
              - (e_p - self._jdx * i) / self._t0)
        te = (e_p * i.conjugate()).real
        ds = (self.mech_torque(slip) - te) / self._h2
        return de, ds

    # -- initialisation --------------------------------------------------

    def _steady_emf(self, slip: float, v: complex) -> complex:
        """E' at dE'/dt = 0: a v / (b + j c s)."""
        return self._a * v / (self._b + 1j * self._c * slip)

    def steady_torque(self, slip: float, v: complex) -> float:
        e_p = self._steady_emf(slip, v)
        i = self._stator_current(e_p, v)
        return (e_p * i.conjugate()).real

    def initialize(self, v: complex, p_target: float) -> np.ndarray:
        """Solve the running equilibrium drawing ``p_target`` (system base).

        The steady-state power is |v|^2 N(s) / M(s), two quadratics in
        the slip, so P(s) = p_target is the quadratic A s^2 + B s + C = 0.
        Its smallest positive root is the stable (low) slip, on the
        branch below pull-out; the load torque is then fixed to balance
        there.  Raises ``ValueError`` when no positive root exists: no
        running state draws ``p_target``, either because it is past the
        pull-out power or because it is under the no-load stator loss.
        """
        p_mach = p_target / self.p.mva_scale
        vv = v.real * v.real + v.imag * v.imag
        (n0, n1, n2), (m0, m1, m2) = self._p_num, self._p_den
        qa = vv * n2 - p_mach * m2
        qb = vv * n1 - p_mach * m1
        qc = vv * n0 - p_mach * m0
        disc = qb * qb - 4.0 * qa * qc
        roots = []
        if disc >= 0.0:
            # the root pair without cancellation: q / qa and qc / q
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = [r for r in (q / qa if qa else 0.0, qc / q if q else 0.0)
                     if r > 0.0]
        if not roots:
            raise ValueError(f"no running slip draws {p_target!r} at "
                             f"|V| {abs(v)!r}")
        slip = min(roots)

        self.s0 = slip
        self.tm0 = self.steady_torque(slip, v)
        e_p = self._steady_emf(slip, v)
        return np.array([e_p.real, e_p.imag, slip])

    def standstill_state(self) -> np.ndarray:
        """Flux-free at slip one, for switch-in events."""
        return np.array([0.0, 0.0, 1.0])
