"""Transmission network data, admittance matrix and steady-state power flow.

Networks are balanced positive-sequence equivalents in per unit on the
system MVA base.  Loads live outside the admittance matrix.  In the power
flow a load is either constant-power or a ZIP load evaluated at its bus's
voltage magnitude; the mismatch equations are solved with the
integrators' damped Newton.  In the dynamic model loads are interface
inputs or static ZIP loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .integrators import (NewtonConfig, NewtonError, NumericFailure,
                          newton_solve)
from .loads import ZipLoadParams, zip_power

__all__ = [
    "TransmissionNetwork",
    "PowerFlowResult",
    "PowerFlowError",
    "load_network",
    "newton_power_flow",
]


class PowerFlowError(NumericFailure):
    pass


# every run starts from the power flow, so it is solved tighter than a
# trapezoidal step
_NEWTON = NewtonConfig(max_iterations=30, residual_tolerance=1e-10)


@dataclass
class TransmissionNetwork:
    """Bus/branch model plus generator placement and nominal bus loads."""

    name: str
    f_hz: float
    bus_ids: list[int]
    slack_bus: int
    ybus: np.ndarray  # complex, (n, n)
    gen_buses: list[int]
    gen_params: list[dict]
    loads: dict[int, complex]  # nominal consumed P + jQ per bus

    _index: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {b: i for i, b in enumerate(self.bus_ids)}

    @property
    def n_bus(self) -> int:
        return len(self.bus_ids)

    def idx(self, bus: int) -> int:
        return self._index[bus]

    @property
    def omega_s(self) -> float:
        return 2.0 * np.pi * self.f_hz


def _build_ybus(bus_ids, branches):
    n = len(bus_ids)
    index = {b: i for i, b in enumerate(bus_ids)}
    y = np.zeros((n, n), dtype=complex)
    for br in branches:
        i, j = index[br["from"]], index[br["to"]]
        ys = 1.0 / complex(br["r"], br["x"])
        ysh = 1j * br["b"] / 2.0
        y[i, i] += ys + ysh
        y[j, j] += ys + ysh
        y[i, j] -= ys
        y[j, i] -= ys
    return y


def load_network(name_or_path: str) -> TransmissionNetwork:
    """Load a shipped dataset by name ('wscc9', 'twobus') or a JSON path.

    A file missing a section or field raises ``ValueError``.
    """
    if name_or_path in ("wscc9", "twobus"):
        text = (resources.files("cotds.data") / f"{name_or_path}.json").read_text()
    else:
        with open(name_or_path) as fh:
            text = fh.read()
    raw = json.loads(text)
    try:
        return TransmissionNetwork(
            name=raw["name"],
            f_hz=raw["f_hz"],
            bus_ids=list(raw["buses"]),
            slack_bus=raw["slack"],
            ybus=_build_ybus(raw["buses"], raw["branches"]),
            gen_buses=[g["bus"] for g in raw["generators"]],
            gen_params=raw["generators"],
            loads={int(k): complex(v[0], v[1])
                   for k, v in raw["loads"].items()},
        )
    except KeyError as exc:
        raise ValueError(f"network {name_or_path!r} has no {exc}") from None


@dataclass
class PowerFlowResult:
    v: np.ndarray  # complex bus voltages
    s_gen: np.ndarray  # complex generated power per generator
    mismatch: float


def newton_power_flow(net: TransmissionNetwork,
                      loads: dict[int, complex] | None = None,
                      zip_loads: dict[int, ZipLoadParams] | None = None,
                      ) -> PowerFlowResult:
    """Slack / PV / PQ Newton power flow on the polar mismatch equations.

    ``loads`` overrides the network's nominal consumed powers (constant
    P + jQ per bus id).  ``zip_loads`` adds voltage-dependent loads per bus
    id, evaluated at the bus's voltage magnitude in every iterate.  The
    solver is ``integrators.newton_solve``; its ``NewtonError`` is raised
    as ``PowerFlowError``.
    """
    loads = net.loads if loads is None else loads
    zips = [(net.idx(bus), zl) for bus, zl in (zip_loads or {}).items()]
    n = net.n_bus
    s_load = np.zeros(n, dtype=complex)
    for bus, s in loads.items():
        s_load[net.idx(bus)] += s

    slack = net.idx(net.slack_bus)
    pv = [net.idx(g["bus"]) for g in net.gen_params
          if g["bus"] != net.slack_bus]
    pq = [i for i in range(n) if i != slack and i not in pv]

    s_inj = -s_load
    theta = np.zeros(n)
    vmag = np.ones(n)
    for g in net.gen_params:
        i = net.idx(g["bus"])
        vmag[i] = g["v_set"]
        if g["bus"] != net.slack_bus:
            s_inj[i] += g["p_set"]

    var_theta = [i for i in range(n) if i != slack]
    nv = len(var_theta)

    def mismatch(z):
        th = theta.copy()
        vm = vmag.copy()
        th[var_theta] = z[:nv]
        vm[pq] = z[nv:]
        v = vm * np.exp(1j * th)
        s_calc = v * np.conj(net.ybus @ v)
        for i, zl in zips:
            s_calc[i] += zip_power(zl, vm[i])
        mis = s_calc - s_inj
        return np.concatenate([mis.real[var_theta], mis.imag[pq]])

    z = np.concatenate([theta[var_theta], vmag[pq]])
    try:
        z = newton_solve(mismatch, z, _NEWTON)
    except NewtonError as exc:
        raise PowerFlowError(f"power flow: {exc}") from exc

    theta[var_theta] = z[:nv]
    vmag[pq] = z[nv:]
    v = vmag * np.exp(1j * theta)
    for i, zl in zips:
        s_load[i] += zip_power(zl, vmag[i])
    s_calc = v * np.conj(net.ybus @ v)
    s_gen = np.array([s_calc[net.idx(b)] + s_load[net.idx(b)]
                      for b in net.gen_buses])
    return PowerFlowResult(v=v, s_gen=s_gen,
                           mismatch=float(np.max(np.abs(mismatch(z)))))
