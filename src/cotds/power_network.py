"""Transmission network data, admittance matrix and steady-state power flow.

Networks are balanced positive-sequence equivalents in per unit on the
system MVA base.  Loads live outside the admittance matrix.  In the power
flow a load is either constant-power or a ZIP load evaluated at its bus's
voltage magnitude; the mismatch equations are solved with the
integrators' Newton, from a flat start or from a given solution, and on
a Jacobian kept from an earlier solve when the caller hands one over.
In the dynamic model loads are interface inputs or static ZIP loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .integrators import (JacobianCache, NewtonConfig, NewtonError,
                          NumericFailure, newton_solve)
from .loads import ZipLoadParams, zip_power
from .machines import GeneratorBank
from .schema import SchemaError, coerce, require

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

    f_hz: float
    bus_ids: list[int]
    slack_bus: int
    ybus: np.ndarray  # complex, (n, n)
    gen_buses: list[int]
    gen_params: list[dict]
    loads: dict[int, complex]  # nominal consumed P + jQ per bus

    _index: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.f_hz > 0:
            raise ValueError(f"f_hz: must be positive, got {self.f_hz!r}")
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
    for k, br in enumerate(branches):
        # x takes either sign, a series capacitor's is negative; a negative
        # r makes a line a source, and charging b is a shunt capacitance
        for key in ("r", "b"):
            if not br[key] >= 0:
                raise SchemaError(f"branches[{k}].{key}: must not be "
                                  f"negative, got {br[key]!r}")
        if br["r"] == 0 and br["x"] == 0:
            raise SchemaError(f"branches[{k}]: zero impedance (r = x = 0)")
        i, j = index[br["from"]], index[br["to"]]
        ys = 1.0 / complex(br["r"], br["x"])
        ysh = 1j * br["b"] / 2.0
        y[i, i] += ys + ysh
        y[j, j] += ys + ysh
        y[i, j] -= ys
        y[j, i] -= ys
    return y


# the network file's spec; p_set, which may be null at the slack bus only,
# is checked once the slack bus is
_BRANCH = {"from": int, "to": int, "r": float, "x": float, "b": float}
_GENERATOR = dict(bus=int, p_set=(object, None), v_set=float, h=float,
                  d=float, xd=float, xq=float, xdp=float, xqp=float,
                  td0p=float, tq0p=float,
                  exciter=dict(gain=float, time_const=float),
                  governor=dict(droop=float, time_const=float))
_NETWORK = dict(buses=[int], slack=int, branches=[_BRANCH], loads=dict,
                generators=[_GENERATOR], f_hz=float)


def _network(doc) -> TransmissionNetwork:
    """The network of a JSON document, checked: ``_NETWORK``, ``loads`` a
    mapping of bus to [p, q], every bus reference one of ``buses``,
    ``p_set`` a number at every generator but the slack's, where it may
    be null or absent, the rules of ``GeneratorBank.check_params`` and
    of ``TransmissionNetwork``, and ``_build_ybus``' branch rules."""
    net = require(doc, "", _NETWORK)
    buses, slack = net["buses"], net["slack"]
    branches, gens = net["branches"], net["generators"]
    loads = {}
    for key, pq in net["loads"].items():
        if not (isinstance(pq, list) and len(pq) == 2):
            raise SchemaError("loads: expected a mapping of bus to [p, q]")
        loads[int(key) if key.isdecimal() else key] = complex(
            *(coerce(x, float, "loads") for x in pq))

    refs = [("slack", slack)]
    refs += [(f"branches[{i}].{key}", br[key])
             for i, br in enumerate(branches) for key in ("from", "to")]
    refs += [("loads", bus) for bus in loads]
    refs += [(f"generators[{i}].bus", g["bus"]) for i, g in enumerate(gens)]
    ids = set(buses)
    for where, bus in refs:
        if bus not in ids:
            raise SchemaError(f"{where}: unknown bus {bus!r}")
    for i, g in enumerate(gens):
        if g["bus"] != slack or g["p_set"] is not None:
            g["p_set"] = coerce(g["p_set"], float, f"generators[{i}].p_set")
        try:
            GeneratorBank.check_params(g)
        except ValueError as exc:
            raise SchemaError(f"generators[{i}].{exc}") from None
    return TransmissionNetwork(
        f_hz=net["f_hz"], bus_ids=buses, slack_bus=slack,
        ybus=_build_ybus(buses, branches), gen_buses=[g["bus"] for g in gens],
        gen_params=gens, loads=loads)


def load_network(name_or_path: str) -> TransmissionNetwork:
    """Load a shipped dataset by name ('wscc9', 'twobus') or a JSON path.

    A file that is not JSON, or that ``_network`` refuses, raises
    ``ValueError`` (a ``SchemaError`` naming the field); the message does
    not name the file, which the caller does.
    """
    if name_or_path in ("wscc9", "twobus"):
        text = (resources.files("cotds.data") / f"{name_or_path}.json").read_text()
    else:
        with open(name_or_path) as fh:
            text = fh.read()
    return _network(json.loads(text))


@dataclass
class PowerFlowResult:
    v: np.ndarray  # complex bus voltages
    s_gen: np.ndarray  # complex generated power per generator


def newton_power_flow(net: TransmissionNetwork,
                      loads: dict[int, complex] | None = None,
                      zip_loads: dict[int, ZipLoadParams] | None = None,
                      start: np.ndarray | None = None,
                      cache: JacobianCache | None = None,
                      ) -> PowerFlowResult:
    """Slack / PV / PQ Newton power flow on the polar mismatch equations.

    ``loads`` overrides the network's nominal consumed powers (constant
    P + jQ per bus id).  ``zip_loads`` adds voltage-dependent loads per bus
    id, evaluated at the bus's voltage magnitude in every iterate.  The
    solver is ``integrators.newton_solve``; its ``NewtonError`` is raised
    as ``PowerFlowError``.

    The solve starts flat, or from the complex bus voltages ``start``:
    their angles at every bus but the slack and their magnitudes at the
    PQ buses.  ``cache`` is handed to ``newton_solve``, which starts from
    the Jacobian it kept from an earlier solve and keeps the last one it
    builds.  A caller that solves a sequence of nearby power flows passes
    the last solution and one cache, and each later solve then takes a
    few kept-Jacobian updates.
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

    if start is not None:
        theta[var_theta] = np.angle(start[var_theta])
        vmag[pq] = np.abs(start[pq])
    z = np.concatenate([theta[var_theta], vmag[pq]])
    try:
        z = newton_solve(mismatch, z, _NEWTON, cache)
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
    return PowerFlowResult(v=v, s_gen=s_gen)
