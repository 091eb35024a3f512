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
``derivatives`` returns a tuple of three floats, the derivative
``integrators.rk_component_step`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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
    """Equivalent-circuit data on the machine base plus base scaling."""

    rs: float
    xs: float
    xm: float
    rr: float
    xr: float
    h_m: float
    mva_scale: float = 1.0   # machine base / system base

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

    # -- electrical interface (machine base internally) -----------------

    def _stator_current(self, e_p: complex, v: complex) -> complex:
        return (v - e_p) / self._zs

    def terminal_power(self, x: np.ndarray, v: complex) -> complex:
        """Consumed P + jQ on the *system* base."""
        e_p = complex(x[0], x[1])
        i = self._stator_current(e_p, v)
        return v * i.conjugate() * self.p.mva_scale

    def electrical_torque(self, x: np.ndarray, v: complex) -> float:
        e_p = complex(x[0], x[1])
        i = self._stator_current(e_p, v)
        return (e_p * i.conjugate()).real

    def mech_torque(self, slip: float) -> float:
        speed = 1.0 - slip
        ref = 1.0 - self.s0
        return self.tm0 * (speed / ref) ** 2

    def derivatives(self, x, v: complex) -> tuple[float, float, float]:
        """State derivatives at state ``x`` (any sequence of three floats)."""
        e_p = complex(x[0], x[1])
        slip = float(x[2])
        i = self._stator_current(e_p, v)
        de = (-1j * slip * self.omega_s * e_p
              - (e_p - 1j * self._dx * i) / self._t0)
        te = (e_p * i.conjugate()).real
        ds = (self.mech_torque(slip) - te) / (2.0 * self.p.h_m)
        return de.real, de.imag, ds

    # -- initialisation --------------------------------------------------

    def _steady_emf(self, slip: float, v: complex) -> complex:
        t0, zs = self._t0, self._zs
        num = 1j * self._dx * v / (t0 * zs)
        den = 1j * slip * self.omega_s + 1.0 / t0 + 1j * self._dx / (t0 * zs)
        return num / den

    def steady_torque(self, slip: float, v: complex) -> float:
        e_p = self._steady_emf(slip, v)
        i = self._stator_current(e_p, v)
        return (e_p * i.conjugate()).real

    def initialize(self, v: complex, p_target: float) -> np.ndarray:
        """Solve the running equilibrium drawing ``p_target`` (system base).

        Finds the stable (low) slip at which the machine consumes the
        requested active power at terminal voltage ``v``, then fixes the
        load torque to balance there.
        """
        p_mach = p_target / self.p.mva_scale

        def active(slip):
            e_p = self._steady_emf(slip, v)
            i = self._stator_current(e_p, v)
            return (v * i.conjugate()).real - p_mach

        # stable branch lies below the pull-out slip; bracket from zero
        s_hi = 0.5
        while active(s_hi) < 0.0 and s_hi > 1e-4:
            s_hi *= 0.5
        slip = brentq(active, 1e-9, s_hi, xtol=1e-14)

        self.s0 = slip
        self.tm0 = self.steady_torque(slip, v)
        e_p = self._steady_emf(slip, v)
        return np.array([e_p.real, e_p.imag, slip])

    def standstill_state(self) -> np.ndarray:
        """Flux-free at slip one, for switch-in events."""
        return np.array([0.0, 0.0, 1.0])
