"""Two-axis synchronous machine with static exciter and droop governor.

All generators in a network are handled as vectorized arrays: each state
block stacks one value per machine.  State layout per machine is

    [eq_p, ed_p, delta, domega, efd, pm]

with ``domega`` the per-unit speed deviation.  Stator resistance is
neglected so the dq stator equations invert in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GeneratorBank", "N_GEN_STATES"]

N_GEN_STATES = 6


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

    @property
    def n_machines(self) -> int:
        return self.h.size

    # -- state packing -------------------------------------------------

    def unpack(self, x: np.ndarray):
        n = self.n_machines
        blocks = x.reshape(n, N_GEN_STATES)
        return (blocks[:, 0], blocks[:, 1], blocks[:, 2],
                blocks[:, 3], blocks[:, 4], blocks[:, 5])

    def pack(self, eq_p, ed_p, delta, domega, efd, pm) -> np.ndarray:
        return np.column_stack([eq_p, ed_p, delta, domega, efd, pm]).ravel()

    # -- stator / network interface -------------------------------------

    def _stator(self, b: np.ndarray, v_bus: np.ndarray):
        """Rotor angle sin/cos and dq stator currents of state blocks b."""
        eq_p, ed_p, delta = b[:, 0], b[:, 1], b[:, 2]
        # rotate terminal phasors into rotor frames (sin/cos, no complex exp)
        sd, cd = np.sin(delta), np.cos(delta)
        vd = v_bus.real * sd - v_bus.imag * cd
        vq = v_bus.real * cd + v_bus.imag * sd
        i_d = (eq_p - vq) / self.xd_p
        i_q = (vd - ed_p) / self.xq_p
        return sd, cd, i_d, i_q

    def injected_current(self, x: np.ndarray, v_bus: np.ndarray) -> np.ndarray:
        """Network-frame current phasor injected by each machine."""
        sd, cd, i_d, i_q = self._stator(
            x.reshape(self.n_machines, N_GEN_STATES), v_bus)
        return (i_d * sd + i_q * cd) + 1j * (i_q * sd - i_d * cd)

    def electrical_power(self, eq_p, ed_p, i_d, i_q):
        return ed_p * i_d + eq_p * i_q + (self.xq_p - self.xd_p) * i_d * i_q

    # -- dynamics --------------------------------------------------------

    def derivatives(self, x: np.ndarray, v_bus: np.ndarray) -> np.ndarray:
        b = x.reshape(self.n_machines, N_GEN_STATES)
        eq_p, ed_p, domega = b[:, 0], b[:, 1], b[:, 3]
        efd, pm = b[:, 4], b[:, 5]
        _, _, i_d, i_q = self._stator(b, v_bus)
        pe = self.electrical_power(eq_p, ed_p, i_d, i_q)
        vmag = np.abs(v_bus)

        out = np.empty_like(b)
        out[:, 0] = (-eq_p - (self.xd - self.xd_p) * i_d + efd) / self.td0_p
        out[:, 1] = (-ed_p + (self.xq - self.xq_p) * i_q) / self.tq0_p
        out[:, 2] = self.omega_s * domega
        out[:, 3] = (pm - pe - self.d * domega) / (2.0 * self.h)
        out[:, 4] = (-efd + self.ke * (self.vref - vmag)) / self.te
        out[:, 5] = (-pm + self.pref - domega / self.droop) / self.tg
        return out.ravel()

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
        pm = self.electrical_power(eq_p, ed_p, i_d, i_q)
        domega = np.zeros_like(pm)

        self.vref = np.abs(v_bus) + efd / self.ke
        self.pref = pm.copy()
        return self.pack(eq_p, ed_p, delta, domega, efd, pm)
