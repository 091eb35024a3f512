"""Transmission network data, admittance matrix and steady-state power flow.

Networks are balanced positive-sequence equivalents in per unit on the
system MVA base.  Loads live outside the admittance matrix and appear as
constant-power injections in the power flow and as interface inputs in
the dynamic model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .integrators import NumericFailure

__all__ = [
    "TransmissionNetwork",
    "PowerFlowResult",
    "PowerFlowError",
    "load_network",
    "newton_power_flow",
]


class PowerFlowError(NumericFailure):
    pass


@dataclass
class TransmissionNetwork:
    """Bus/branch model plus generator placement and nominal bus loads."""

    name: str
    base_mva: float
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
    """Load a shipped dataset by name ('wscc9', 'twobus') or a JSON path."""
    if name_or_path in ("wscc9", "twobus"):
        text = (resources.files("cotds.data") / f"{name_or_path}.json").read_text()
    else:
        with open(name_or_path) as fh:
            text = fh.read()
    raw = json.loads(text)
    ybus = _build_ybus(raw["buses"], raw["branches"])
    return TransmissionNetwork(
        name=raw["name"],
        base_mva=raw["base_mva"],
        f_hz=raw["f_hz"],
        bus_ids=list(raw["buses"]),
        slack_bus=raw["slack"],
        ybus=ybus,
        gen_buses=[g["bus"] for g in raw["generators"]],
        gen_params=raw["generators"],
        loads={int(k): complex(v[0], v[1]) for k, v in raw["loads"].items()},
    )


@dataclass
class PowerFlowResult:
    v: np.ndarray  # complex bus voltages
    s_gen: np.ndarray  # complex generated power per generator
    iterations: int
    mismatch: float


def newton_power_flow(net: TransmissionNetwork,
                      loads: dict[int, complex] | None = None,
                      tol: float = 1e-10,
                      max_iter: int = 30) -> PowerFlowResult:
    """Slack / PV / PQ Newton power flow on the polar mismatch equations.

    ``loads`` overrides the network's nominal consumed powers (consumed
    P + jQ per bus id).  The Jacobian is finite-difference; the systems
    here are small and dense.
    """
    loads = dict(net.loads if loads is None else loads)
    n = net.n_bus
    s_load = np.zeros(n, dtype=complex)
    for bus, s in loads.items():
        s_load[net.idx(bus)] += s

    slack = net.idx(net.slack_bus)
    pv = [net.idx(g["bus"]) for g in net.gen_params
          if g["bus"] != net.slack_bus]
    pq = [i for i in range(n) if i != slack and i not in pv]

    vset = np.ones(n)
    p_inj = -s_load.real
    q_inj = -s_load.imag
    for g in net.gen_params:
        i = net.idx(g["bus"])
        vset[i] = g["v_set"]
        if g["bus"] != net.slack_bus:
            p_inj[i] += g["p_set"]

    theta = np.zeros(n)
    vmag = vset.copy()
    for i in pq:
        vmag[i] = 1.0

    var_theta = [i for i in range(n) if i != slack]
    nv = len(var_theta)

    def mismatch(z):
        th = theta.copy()
        vm = vmag.copy()
        th[var_theta] = z[:nv]
        vm[pq] = z[nv:]
        v = vm * np.exp(1j * th)
        s_calc = v * np.conj(net.ybus @ v)
        dp = s_calc.real - p_inj
        dq = s_calc.imag - q_inj
        return np.concatenate([dp[var_theta], dq[pq]])

    z = np.concatenate([theta[var_theta], vmag[pq]])
    m = mismatch(z)
    it = 0
    while np.max(np.abs(m)) > tol:
        if it >= max_iter:
            raise PowerFlowError(
                f"power flow did not converge (mismatch {np.max(np.abs(m)):.3e})")
        jac = np.empty((m.size, z.size))
        for k in range(z.size):
            dz = 1e-7 * max(1.0, abs(z[k]))
            zp = z.copy()
            zp[k] += dz
            jac[:, k] = (mismatch(zp) - m) / dz
        z = z + np.linalg.solve(jac, -m)
        m = mismatch(z)
        it += 1

    theta[var_theta] = z[:nv]
    vmag[pq] = z[nv:]
    v = vmag * np.exp(1j * theta)
    s_calc = v * np.conj(net.ybus @ v)
    s_gen = np.array([s_calc[net.idx(b)] + s_load[net.idx(b)]
                      for b in net.gen_buses])
    return PowerFlowResult(v=v, s_gen=s_gen, iterations=it,
                           mismatch=float(np.max(np.abs(m))))
