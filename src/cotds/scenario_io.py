"""Scenario file parsing, validation, and CSV time-series emission.

Scenario files are JSON with fixed sections; unknown keys are rejected
before any numerics run.  The parser checks types and shapes only; the
rules are ``engine.FeederSpec``'s and ``engine.check_scenario``'s, whose
``ValueError`` it reports as a ``SchemaError``.  CSV output keeps 13
significant digits so downstream tolerance checks are never
quantization-limited.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .cosim import Event, TimeSeriesLog
from .engine import FeederSpec, MotorSpec, RunMethod, Scenario
from .feeder import FeederBranch
from .loads import InductionMotorParams

__all__ = ["SchemaError", "parse_scenario", "load_scenario", "write_csv",
           "write_table", "read_csv", "fixture_path"]


class SchemaError(ValueError):
    pass


def _require(d: dict, where: str, required: dict, optional: dict = {}):
    """Type-check required/optional keys and reject anything else."""
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, typ in required.items():
        if key not in d:
            raise SchemaError(f"{where}: missing key {key!r}")
        out[key] = _coerce(d[key], typ, f"{where}.{key}")
    for key, (typ, default) in optional.items():
        out[key] = _coerce(d[key], typ, f"{where}.{key}") \
            if key in d else default
    return out


def _coerce(value, typ, where):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}: expected a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise SchemaError(f"{where}: must be finite, got {number}")
        return number
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}: expected an integer")
        return value
    if not isinstance(value, typ):
        raise SchemaError(f"{where}: expected {typ.__name__}")
    return value


def _parse_machine(d, where):
    vals = _require(d, where, dict(rs=float, xs=float, xm=float, rr=float,
                                   xr=float, h_m=float, mva_scale=float))
    return InductionMotorParams(**vals)


def _parse_motor(d, where):
    v = _require(d, where,
                 dict(name=str, node=int, share=float, machine=dict),
                 dict(active=(bool, True)))
    return MotorSpec(name=v["name"], node=v["node"], share=v["share"],
                     machine=_parse_machine(v["machine"], where + ".machine"),
                     active=v["active"])


def _parse_feeder(d, where):
    v = _require(d, where,
                 dict(bus=int, branches=list, loads=list, composition=dict),
                 dict(active=(bool, True)))
    branches = []
    for i, b in enumerate(v["branches"]):
        bb = _require(b, f"{where}.branches[{i}]",
                      {"from": int, "to": int, "r": float, "x": float})
        branches.append(FeederBranch(bb["from"], bb["to"], bb["r"], bb["x"]))
    loads = []
    for i, l in enumerate(v["loads"]):
        ll = _require(l, f"{where}.loads[{i}]",
                      dict(node=int, p=float, q=float))
        loads.append((ll["node"], ll["p"], ll["q"]))
    comp = _require(v["composition"], where + ".composition",
                    dict(static_fraction=float, zip_fractions=list,
                         motors=list))
    zf = comp["zip_fractions"]
    if len(zf) != 3:
        raise SchemaError(f"{where}.composition.zip_fractions: "
                          "expected three numbers")
    zf = tuple(_coerce(z, float, f"{where}.composition.zip_fractions[{i}]")
               for i, z in enumerate(zf))
    motors = tuple(_parse_motor(m, f"{where}.composition.motors[{i}]")
                   for i, m in enumerate(comp["motors"]))
    try:
        return FeederSpec(bus=v["bus"], branches=tuple(branches),
                          loads=tuple(loads),
                          static_fraction=comp["static_fraction"],
                          zip_fractions=zf,
                          motors=motors, active=v["active"])
    except ValueError as exc:
        raise SchemaError(f"{where}.{exc}") from None


def parse_scenario(doc: dict) -> Scenario:
    v = _require(doc, "scenario",
                 dict(name=str, transmission=str, feeders=list,
                      run=dict, outputs=dict),
                 dict(events=(list, [])))
    run = _require(v["run"], "run",
                   dict(method=str, h_macro=float, t_end=float),
                   dict(rk_tol=(float, 1e-6)))
    try:
        method = RunMethod(run["method"])
    except ValueError:
        raise SchemaError(f"run.method: unknown method {run['method']!r}")
    outputs = _require(v["outputs"], "outputs", dict(channels=list))
    channels = outputs["channels"]
    if not all(isinstance(c, str) for c in channels):
        raise SchemaError("outputs.channels: expected strings")
    feeders = [_parse_feeder(f, f"feeders[{i}]")
               for i, f in enumerate(v["feeders"])]
    events = [Event(**_require(e, f"events[{i}]",
                               dict(time=float, target=str, action=str),
                               dict(params=(dict, {}))))
              for i, e in enumerate(v["events"])]
    try:
        return Scenario(name=v["name"], transmission=v["transmission"],
                        feeders=feeders, events=events, method=method,
                        h_macro=run["h_macro"], t_end=run["t_end"],
                        rk_tol=run["rk_tol"], channels=list(channels))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(doc)


def fixture_path(name: str) -> str:
    """Path of a shipped scenario fixture such as 'testcase1'."""
    from importlib import resources
    p = resources.files("cotds.data") / f"{name}.json"
    if not p.is_file():
        raise FileNotFoundError(f"no shipped fixture named {name!r}")
    return str(p)


def write_csv(path: str, log: TimeSeriesLog,
              channels: list[str] | None = None) -> None:
    cols = channels if channels else list(log.columns)
    missing = [c for c in cols if c not in log.columns]
    if missing:
        raise SchemaError(f"unknown channels {missing}")
    picked = log.as_array()[:, [log.columns.index(c) for c in cols]]
    write_table(path, ["t"] + cols, np.column_stack([log.time_array, picked]))


def write_table(path: str, header: list[str], rows) -> None:
    """Write ``rows`` under ``header`` as CSV, making the directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savetxt(path, rows, delimiter=",", header=",".join(header),
               comments="", fmt="%.12e")


def read_csv(path: str) -> TimeSeriesLog:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header[0] != "t":
        raise SchemaError(f"{path}: first column must be 't'")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TimeSeriesLog(columns=header[1:], times=list(data[:, 0]),
                         rows=[list(r) for r in data[:, 1:]],
                         diverged=False, failure=None)
