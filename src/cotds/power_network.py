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
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .integrators import (JacobianCache, NewtonConfig, NewtonError,
                          NumericFailure, newton_solve)
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


def _check_sections(raw) -> None:
    """``ValueError`` naming the first section of a network file that is
    not of its shape: buses, branches and generators lists, each branch
    and generator an object, loads a mapping of bus to [p, q]."""
    if not isinstance(raw, dict):
        raise ValueError(f"expected an object, got {type(raw).__name__}")
    for key in ("buses", "branches", "generators"):
        if not isinstance(raw[key], list):
            raise ValueError(f"{key}: expected a list, got "
                             f"{type(raw[key]).__name__}")
    for key in ("branches", "generators"):
        for i, item in enumerate(raw[key]):
            if not isinstance(item, dict):
                raise ValueError(f"{key}[{i}]: expected an object, got "
                                 f"{type(item).__name__}")
    loads = raw["loads"]
    if not (isinstance(loads, dict) and all(
            isinstance(pq, list) and len(pq) == 2
            and all(isinstance(x, (int, float)) for x in pq)
            for pq in loads.values())):
        raise ValueError("loads: expected a mapping of bus to [p, q]")


def _field(item: dict, key: str, where: str):
    """``item[key]``; ``ValueError`` naming ``where.key`` when missing."""
    if key not in item:
        raise ValueError(f"{where}.{key}: missing")
    return item[key]


def _check_number(item: dict, key: str, where: str) -> None:
    """``ValueError`` unless ``item[key]`` is a finite JSON number."""
    x = _field(item, key, where)
    if not (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x)):
        raise ValueError(f"{where}.{key}: expected a finite number, got "
                         f"{x!r}")


# the generator fields the machine model reads: numbers of the generator,
# and numbers of each of its control blocks
_GEN_NUMBERS = ("v_set", "h", "d", "xd", "xq", "xdp", "xqp", "td0p", "tq0p")
_GEN_BLOCKS = {"exciter": ("gain", "time_const"),
               "governor": ("droop", "time_const")}


def _check_fields(raw) -> None:
    """``ValueError`` naming the first bus reference or numeric field of
    a branch, load or generator that is not one: every bus an integer
    id, every reference to a bus in ``buses``, every impedance, power
    and machine constant a finite number.  ``p_set`` may be null or
    absent at the slack bus only, whose generation the power flow
    solves for."""
    buses = raw["buses"]
    for i, bus in enumerate(buses):
        if not (isinstance(bus, int) and not isinstance(bus, bool)):
            raise ValueError(f"buses[{i}]: expected an integer bus id, "
                             f"got {bus!r}")

    def check_bus(bus, where):
        if bus not in buses:
            raise ValueError(f"{where}: unknown bus {bus!r}")

    slack = raw["slack"]
    check_bus(slack, "slack")
    for i, br in enumerate(raw["branches"]):
        where = f"branches[{i}]"
        for key in ("from", "to"):
            check_bus(_field(br, key, where), f"{where}.{key}")
        for key in ("r", "x", "b"):
            _check_number(br, key, where)
    for key in raw["loads"]:
        check_bus(int(key) if key.isdigit() else key, "loads")
    for i, g in enumerate(raw["generators"]):
        where = f"generators[{i}]"
        bus = _field(g, "bus", where)
        check_bus(bus, f"{where}.bus")
        if bus != slack or g.get("p_set") is not None:
            _check_number(g, "p_set", where)
        for key in _GEN_NUMBERS:
            _check_number(g, key, where)
        for sub, keys in _GEN_BLOCKS.items():
            block = _field(g, sub, where)
            if not isinstance(block, dict):
                raise ValueError(f"{where}.{sub}: expected an object, got "
                                 f"{type(block).__name__}")
            for key in keys:
                _check_number(block, key, f"{where}.{sub}")


def load_network(name_or_path: str) -> TransmissionNetwork:
    """Load a shipped dataset by name ('wscc9', 'twobus') or a JSON path.

    A file that is not JSON, or that misses a section or field, has a
    section of the wrong shape, refers to a bus it does not list or has
    a field that is not a finite number, raises ``ValueError``; the
    message does not name the file, which the caller does.
    """
    if name_or_path in ("wscc9", "twobus"):
        text = (resources.files("cotds.data") / f"{name_or_path}.json").read_text()
    else:
        with open(name_or_path) as fh:
            text = fh.read()
    raw = json.loads(text)
    try:
        _check_sections(raw)
        _check_fields(raw)
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
        raise ValueError(f"network has no {exc}") from None


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
