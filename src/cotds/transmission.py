"""Transmission-side DAE and its co-simulation adapter.

Differential states are the stacked generator blocks; algebraic unknowns
are the real and imaginary bus voltages.  The algebraic residual is the
nodal current balance with generator injections, static ZIP loads, and
the interface powers handed over by the distribution sub-systems.

``f`` and ``g`` run at every residual of the trapezoidal Newton.  Like
the generator kernel they work on Python scalars: the bus voltages they
need become Python complex numbers read from ``y.tolist()`` at indices
fixed when the DAE is built, and the load and interface currents are
summed per bus in a list.  Only the network product ``ybus @ v`` is one
numpy call.  A zero voltage at a loaded bus, or a voltage there whose
magnitude is past the float range, makes ``g`` all nan, as numpy's
division and ``abs`` made it non-finite; it never raises.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .cosim import SubSystem
from .integrators import DaeSystem, JacobianCache, trapezoidal_dae_step
from .loads import ZipLoadParams, zip_power
from .machines import N_GEN_STATES, GeneratorBank
from .power_network import TransmissionNetwork, newton_power_flow

__all__ = ["TransmissionDae", "TransmissionSubSystem"]

_DELTA = 2  # index of the rotor angle within a machine's block


class TransmissionDae(DaeSystem):
    """f: generator dynamics; g: complex current balance at every bus.

    Input layout: ``u = [P_1, Q_1, P_2, Q_2, ...]``, a float sequence,
    consumed at the interface buses, in the order of ``interface_buses``.
    """

    def __init__(self, net: TransmissionNetwork, bank: GeneratorBank,
                 static_loads: dict[int, ZipLoadParams],
                 interface_buses: list[int]):
        self.net = net
        self.bank = bank
        self.static_loads = dict(static_loads)
        self.interface_buses = list(interface_buses)
        self._gen_idx = [net.idx(b) for b in net.gen_buses]
        self._if_idx = [net.idx(b) for b in self.interface_buses]
        # (bus index, load) of each static load, read once here
        self._loads = [(net.idx(b), zl) for b, zl in self.static_loads.items()]
        self.n_x = N_GEN_STATES * bank.n_machines
        self.n_y = 2 * net.n_bus

    def pack_voltages(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([v.real, v.imag])

    def f(self, x, y):
        n = self.net.n_bus
        yl = y.tolist()
        return self.bank.derivatives(
            x, [complex(yl[k], yl[k + n]) for k in self._gen_idx])

    def g(self, x, y, u):
        n = self.net.n_bus
        yl = y.tolist()
        v = list(map(complex, yl[:n], yl[n:]))
        i_inj = [0j] * n
        gen = self.bank.injected_current(x, [v[k] for k in self._gen_idx])
        for k, i in zip(self._gen_idx, gen.tolist()):
            i_inj[k] += i
        try:
            for k, zl in self._loads:
                i_inj[k] -= (zip_power(zl, abs(v[k])) / v[k]).conjugate()
            for k, p, q in zip(self._if_idx, u[0::2], u[1::2]):
                i_inj[k] -= (complex(p, q) / v[k]).conjugate()
        except (ZeroDivisionError, OverflowError):  # a dead or runaway bus
            return np.full(self.n_y, np.nan)
        mis = self.net.ybus @ np.array(v) - np.array(i_inj)
        return np.concatenate([mis.real, mis.imag])


class TransmissionSubSystem(SubSystem):
    """Input: consumed [P, Q] per interface bus.  Output: [e, f] per bus.

    ``newton_cache`` carries the trapezoidal Jacobian from one macro step
    to the next, and the step's Newton counters.  ``power_flow_cache``
    carries the power flow's Jacobian, and its counters, from one
    ``initialize`` to the next.  Neither is state: each only starts an
    iteration solved to tolerance, so ``state()`` is ``x``, ``y`` and the
    input, laid end to end.
    """

    def __init__(self, dae: TransmissionDae):
        self.dae = dae
        self.newton_cache = JacobianCache()
        self.power_flow_cache = JacobianCache()
        self._pf_v = None  # the last power-flow solution
        self.current_input = [0.0] * (2 * len(dae.interface_buses))
        self.x = np.zeros(dae.n_x)
        self.y = np.zeros(dae.n_y)
        n = dae.net.n_bus
        # positions in y of the interface voltages' [e, f], laid end to end
        self._out_idx = np.array([i for k in dae._if_idx for i in (k, k + n)],
                                 dtype=int)
        self._channels = self.snapshot_channels(dae.bank.n_machines,
                                                dae.net.bus_ids)

    @staticmethod
    def snapshot_channels(n_machines: int, bus_ids: list[int]) -> list[str]:
        """The snapshot's channel names, from the network alone."""
        return ([f"gen{k + 1}.{name}" for k in range(n_machines)
                 for name in ("delta", "domega")]
                + [f"bus{bus}.vmag" for bus in bus_ids])

    def initialize(self, inputs) -> None:
        """Power-flow start: interface powers are constant-power loads.

        The static ZIP loads enter the power flow at each iterate's bus
        voltage magnitude, so one solve gives the steady state; it raises
        ``PowerFlowError`` when it does not converge.  The first solve
        starts flat; each later one starts from the last solution, with
        the Jacobian ``power_flow_cache`` kept, so the passes of the T-D
        initialisation, which move the interface powers a little each
        time, take a few kept-Jacobian updates apiece.
        """
        self.set_input(inputs)
        dae = self.dae
        s_if = {bus: complex(inputs[2 * k], inputs[2 * k + 1])
                for k, bus in enumerate(dae.interface_buses)}
        pf = newton_power_flow(dae.net, s_if, dae.static_loads,
                               start=self._pf_v, cache=self.power_flow_cache)
        self._pf_v = pf.v
        vg = pf.v[dae._gen_idx]
        self.x = dae.bank.initialize(vg, pf.s_gen)
        self.y = dae.pack_voltages(pf.v)

    def advance(self, h: float) -> None:
        self.x, self.y = trapezoidal_dae_step(
            self.dae, self.x, self.y, self.current_input, h,
            cache=self.newton_cache)

    def output(self) -> list[float]:
        return self.y[self._out_idx].tolist()

    def state(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.current_input])

    def set_state(self, z) -> None:
        z = self._state_vector(z)
        nx, ny = self.x.size, self.y.size
        self.x, self.y = z[:nx], z[nx:nx + ny]
        self.current_input = z[nx + ny:].tolist()

    def rotate(self, angle: float) -> None:
        """Turn the frame by ``angle``: every rotor angle grows by it and
        every bus voltage turns by it.  The input, powers, is unchanged."""
        x = self.x.copy()
        x[_DELTA::N_GEN_STATES] += angle
        n = self.dae.net.n_bus
        v = (self.y[:n] + 1j * self.y[n:]) * cmath.exp(1j * angle)
        self.x, self.y = x, self.dae.pack_voltages(v)

    def snapshot(self):
        """Each machine's delta and domega, then every bus's |V|."""
        xl, yl = self.x.tolist(), self.y.tolist()
        n = self.dae.net.n_bus
        values = []
        for j in range(_DELTA, len(xl), N_GEN_STATES):
            values += xl[j:j + 2]
        values += map(math.hypot, yl[:n], yl[n:])
        return dict(zip(self._channels, values))
