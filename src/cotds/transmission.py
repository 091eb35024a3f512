"""Transmission-side DAE and its co-simulation adapter.

Differential states are the stacked generator blocks; algebraic unknowns
are the real and imaginary bus voltages.  The algebraic residual is the
nodal current balance with generator injections, static ZIP loads, and
the interface powers handed over by the distribution sub-systems.
"""

from __future__ import annotations

import numpy as np

from .cosim import SubSystem
from .integrators import (DaeSystem, JacobianCache, NewtonConfig,
                          trapezoidal_dae_step)
from .loads import ZipLoadParams, zip_power
from .machines import N_GEN_STATES, GeneratorBank
from .power_network import TransmissionNetwork, newton_power_flow

__all__ = ["TransmissionDae", "TransmissionSubSystem"]

_NEWTON = NewtonConfig()


class TransmissionDae(DaeSystem):
    """f: generator dynamics; g: complex current balance at every bus.

    Input layout: ``u = [P_1, Q_1, P_2, Q_2, ...]`` consumed at the
    interface buses, in the order of ``interface_buses``.
    """

    def __init__(self, net: TransmissionNetwork, bank: GeneratorBank,
                 static_loads: dict[int, ZipLoadParams],
                 interface_buses: list[int]):
        self.net = net
        self.bank = bank
        self.static_loads = dict(static_loads)
        self.interface_buses = list(interface_buses)
        self._gen_idx = np.array([net.idx(b) for b in net.gen_buses])
        self._if_idx = np.array([net.idx(b) for b in self.interface_buses],
                                dtype=int)

    @property
    def n_x(self) -> int:
        return N_GEN_STATES * self.bank.n_machines

    @property
    def n_y(self) -> int:
        return 2 * self.net.n_bus

    def bus_voltages(self, y: np.ndarray) -> np.ndarray:
        n = self.net.n_bus
        return y[:n] + 1j * y[n:]

    def pack_voltages(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([v.real, v.imag])

    def f(self, x, y, u):
        v = self.bus_voltages(y)
        return self.bank.derivatives(x, v[self._gen_idx])

    def g(self, x, y, u):
        v = self.bus_voltages(y)
        i_inj = np.zeros(self.net.n_bus, dtype=complex)
        i_inj[self._gen_idx] += self.bank.injected_current(x, v[self._gen_idx])
        for bus, zl in self.static_loads.items():
            k = self.net.idx(bus)
            s = zip_power(zl, abs(v[k]))
            i_inj[k] -= np.conj(s / v[k])
        if self._if_idx.size:
            s_if = u[0::2] + 1j * u[1::2]
            i_inj[self._if_idx] -= np.conj(s_if / v[self._if_idx])
        mis = self.net.ybus @ v - i_inj
        return np.concatenate([mis.real, mis.imag])


class TransmissionSubSystem(SubSystem):
    """Input: consumed [P, Q] per interface bus.  Output: [e, f] per bus.

    ``newton_cache`` carries the trapezoidal Jacobian from one macro step
    to the next, and the step's Newton counters.
    """

    def __init__(self, name: str, dae: TransmissionDae):
        self.name = name
        self.dae = dae
        self.newton_cache = JacobianCache()
        self.current_input = np.zeros(2 * len(dae.interface_buses))
        self.x = np.zeros(dae.n_x)
        self.y = np.zeros(dae.n_y)

    def initialize(self, inputs: np.ndarray) -> None:
        """Power-flow start: interface powers are constant-power loads.

        The static ZIP loads enter the power flow at each iterate's bus
        voltage magnitude, so one solve gives the steady state; it raises
        ``PowerFlowError`` when it does not converge.
        """
        self.set_input(inputs)
        dae = self.dae
        s_if = {bus: complex(inputs[2 * k], inputs[2 * k + 1])
                for k, bus in enumerate(dae.interface_buses)}
        pf = newton_power_flow(dae.net, s_if, dae.static_loads)
        vg = pf.v[dae._gen_idx]
        self.x = dae.bank.initialize(vg, pf.s_gen)
        self.y = dae.pack_voltages(pf.v)

    def advance(self, h: float) -> None:
        self.x, self.y = trapezoidal_dae_step(
            self.dae, self.x, self.y, self.current_input, h, _NEWTON,
            self.newton_cache)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise OverflowError("transmission state is non-finite")

    def output(self) -> np.ndarray:
        v = self.dae.bus_voltages(self.y)
        out = np.empty(2 * self.dae._if_idx.size)
        out[0::2] = v[self.dae._if_idx].real
        out[1::2] = v[self.dae._if_idx].imag
        return out

    def snapshot(self):
        v = self.dae.bus_voltages(self.y)
        bank = self.dae.bank
        _, _, delta, domega, _, _ = bank.unpack(self.x)
        out = {}
        for k in range(bank.n_machines):
            out[f"gen{k + 1}.delta"] = float(delta[k])
            out[f"gen{k + 1}.domega"] = float(domega[k])
        for i, bus in enumerate(self.dae.net.bus_ids):
            out[f"bus{bus}.vmag"] = float(abs(v[i]))
        return out
