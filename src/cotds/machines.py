"""Two-axis synchronous machine with static exciter and droop governor.

All generators in a network form one ``GeneratorBank``, whose parameters
are arrays with one value per machine.  The state vector stacks one block
per machine, laid out as

    [eq_p, ed_p, delta, domega, efd, pm]

with ``domega`` the per-unit speed deviation.  Stator resistance is
neglected so the dq stator equations invert in closed form.

``derivatives`` and ``injected_current`` run at every residual of the
transmission Newton, for a handful of machines.  At that size numpy's
per-call overhead outweighs the arithmetic, so both loop over the
machines on Python floats, with each machine's constants gathered into
a tuple once (again whenever ``initialize`` sets the set points), and
return one array.  An infinite rotor angle gives nan, as numpy's sine
does, and a terminal voltage past the float range an infinite magnitude,
as numpy's ``abs`` does; never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GeneratorBank", "N_GEN_STATES"]

N_GEN_STATES = 6

# the parameters of one machine that the model divides by, as paths into
# its parameters (``GeneratorBank.from_params``' keys); the exciter gain
# divides the voltage set point ``initialize`` finds
_POSITIVE = ("h", "xdp", "xqp", "td0p", "tq0p", "exciter.gain",
             "exciter.time_const", "governor.droop", "governor.time_const")


def _stator(xd_p, xq_p, eq_p, ed_p, delta, v):
    """Rotor angle sin/cos and dq stator currents of one machine."""
    try:
        sd, cd = math.sin(delta), math.cos(delta)
    except ValueError:  # an infinite angle; numpy's sine gives nan
        sd = cd = math.nan
    # rotate the terminal phasor into the rotor frame
    vd = v.real * sd - v.imag * cd
    vq = v.real * cd + v.imag * sd
    return sd, cd, (eq_p - vq) / xd_p, (vd - ed_p) / xq_p


def _electrical_power(eq_p, ed_p, i_d, i_q, xd_p, xq_p):
    return ed_p * i_d + eq_p * i_q + (xq_p - xd_p) * i_d * i_q


@dataclass
class GeneratorBank:
    """Array-valued parameters for all machines on one network."""

    h: np.ndarray
    d: np.ndarray
    xd: np.ndarray
    xq: np.ndarray
    xd_p: np.ndarray
    xq_p: np.ndarray
    td0_p: np.ndarray
    tq0_p: np.ndarray
    ke: np.ndarray       # exciter gain
    te: np.ndarray       # exciter time constant
    droop: np.ndarray    # governor droop R
    tg: np.ndarray       # governor time constant
    vref: np.ndarray     # filled by initialize()
    pref: np.ndarray
    omega_s: float

    def __post_init__(self):
        self._set_constants()

    def _set_constants(self) -> None:
        """Each machine's constants as a tuple of Python floats."""
        self._consts = tuple(zip(*(a.tolist() for a in (
            self.xd, self.xq, self.xd_p, self.xq_p, self.td0_p, self.tq0_p,
            self.ke, self.te, self.droop, self.tg, self.vref, self.pref,
            2.0 * self.h, self.d))))

    @classmethod
    def from_params(cls, gen_params: list[dict], omega_s: float) -> "GeneratorBank":
        def col(key, sub=None):
            if sub is None:
                return np.array([g[key] for g in gen_params], dtype=float)
            return np.array([g[sub][key] for g in gen_params], dtype=float)

        n = len(gen_params)
        return cls(
            h=col("h"), d=col("d"),
            xd=col("xd"), xq=col("xq"), xd_p=col("xdp"), xq_p=col("xqp"),
            td0_p=col("td0p"), tq0_p=col("tq0p"),
            ke=col("gain", "exciter"), te=col("time_const", "exciter"),
            droop=col("droop", "governor"), tg=col("time_const", "governor"),
            vref=np.zeros(n), pref=np.zeros(n), omega_s=omega_s,
        )

    @staticmethod
    def check_params(params: dict) -> None:
        """``ValueError``, starting with the field's path, unless every
        parameter of one machine that the model divides by is positive."""
        for path in _POSITIVE:
            value = params
            for key in path.split("."):
                value = value[key]
            if not value > 0:
                raise ValueError(f"{path}: must be positive, got {value!r}")

    @property
    def n_machines(self) -> int:
        return self.h.size

    # -- state packing -------------------------------------------------

    def pack(self, eq_p, ed_p, delta, domega, efd, pm) -> np.ndarray:
        return np.column_stack([eq_p, ed_p, delta, domega, efd, pm]).ravel()

    # -- stator / network interface -------------------------------------

    def injected_current(self, x: np.ndarray, v_bus) -> np.ndarray:
        """Network-frame current phasor injected by each machine."""
        xs = x.tolist()
        out = []
        for k, (c, v) in enumerate(zip(self._consts, v_bus)):
            j = N_GEN_STATES * k
            sd, cd, i_d, i_q = _stator(c[2], c[3], xs[j], xs[j + 1],
                                       xs[j + 2], v)
            out.append(complex(i_d * sd + i_q * cd, i_q * sd - i_d * cd))
        return np.array(out)

    # -- dynamics --------------------------------------------------------

    def derivatives(self, x: np.ndarray, v_bus) -> np.ndarray:
        """Stacked state derivatives at terminal voltages ``v_bus``."""
        xs = x.tolist()
        omega_s = self.omega_s
        out = []
        for k, (c, v) in enumerate(zip(self._consts, v_bus)):
            (xd, xq, xd_p, xq_p, td0_p, tq0_p, ke, te, droop, tg, vref,
             pref, h2, d) = c
            j = N_GEN_STATES * k
            eq_p, ed_p, delta, domega, efd, pm = xs[j:j + N_GEN_STATES]
            _, _, i_d, i_q = _stator(xd_p, xq_p, eq_p, ed_p, delta, v)
            pe = _electrical_power(eq_p, ed_p, i_d, i_q, xd_p, xq_p)
            try:
                vmag = abs(v)
            except OverflowError:  # past the float range; numpy gives inf
                vmag = math.inf
            out += [(-eq_p - (xd - xd_p) * i_d + efd) / td0_p,
                    (-ed_p + (xq - xq_p) * i_q) / tq0_p,
                    omega_s * domega,
                    (pm - pe - d * domega) / h2,
                    (-efd + ke * (vref - vmag)) / te,
                    (-pm + pref - domega / droop) / tg]
        return np.array(out)

    # -- initialization --------------------------------------------------

    def initialize(self, v_bus: np.ndarray, s_gen: np.ndarray) -> np.ndarray:
        """Back-solve equilibrium states from a power-flow solution.

        Sets ``vref`` and ``pref`` in place so the derivatives vanish at
        the returned state.
        """
        i_net = np.conj(s_gen / v_bus)
        delta = np.angle(v_bus + 1j * self.xq * i_net)
        rot = np.exp(-1j * (delta - np.pi / 2.0))
        vdq = v_bus * rot
        idq = i_net * rot
        vd, vq = vdq.real, vdq.imag
        i_d, i_q = idq.real, idq.imag

        eq_p = vq + self.xd_p * i_d
        ed_p = vd - self.xq_p * i_q
        efd = eq_p + (self.xd - self.xd_p) * i_d
        pm = _electrical_power(eq_p, ed_p, i_d, i_q, self.xd_p, self.xq_p)
        domega = np.zeros_like(pm)

        self.vref = np.abs(v_bus) + efd / self.ke
        self.pref = pm.copy()
        self._set_constants()
        return self.pack(eq_p, ed_p, delta, domega, efd, pm)
