"""Scenario file parsing, validation, and CSV time-series emission.

A scenario file is read against ``_SCENARIO`` by ``schema.require``,
as a network file is against its spec.  The parser checks types and
shapes only; the rules are ``engine.FeederSpec``'s and
``engine.check_scenario``'s, whose ``ValueError`` it reports as a
``SchemaError``.  CSV output keeps 13 significant digits so downstream
tolerance checks are never quantization-limited.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .cosim import Event, TimeSeriesLog
from .engine import FeederSpec, MotorSpec, RunMethod, Scenario
from .feeder import FeederBranch
from .loads import InductionMotorParams
from .schema import SchemaError, require

__all__ = ["SchemaError", "parse_scenario", "load_scenario", "write_csv",
           "write_table", "read_csv", "fixture_path"]


_MOTOR = dict(name=str, node=int, share=float, active=(bool, True),
              machine=dict(rs=float, xs=float, xm=float, rr=float, xr=float,
                           h_m=float, mva_scale=float))
_FEEDER = dict(bus=int, active=(bool, True),
               branches=[{"from": int, "to": int, "r": float, "x": float}],
               loads=[dict(node=int, p=float, q=float)],
               composition=dict(static_fraction=float, zip_fractions=[float],
                                motors=[_MOTOR]))
_SCENARIO = dict(name=str, transmission=str, feeders=[_FEEDER],
                 events=([dict(time=float, target=str, action=str,
                               params=(dict, {}))], []),
                 run=dict(method=str, h_macro=float, t_end=float,
                          rk_tol=(float, 1e-6)),
                 outputs=dict(channels=[str]))


def _feeder(f: dict, where: str) -> FeederSpec:
    """The feeder of a checked ``_FEEDER`` object at path ``where``."""
    comp = f["composition"]
    if len(comp["zip_fractions"]) != 3:
        raise SchemaError(f"{where}.composition.zip_fractions: "
                          "expected three numbers")
    motors = []
    for i, m in enumerate(comp["motors"]):
        try:
            machine = InductionMotorParams(**m["machine"])
        except ValueError as exc:
            raise SchemaError(f"{where}.composition.motors[{i}].machine."
                              f"{exc}") from None
        motors.append(MotorSpec(**{**m, "machine": machine}))
    try:
        return FeederSpec(
            bus=f["bus"], active=f["active"],
            branches=tuple(FeederBranch(b["from"], b["to"], b["r"], b["x"])
                           for b in f["branches"]),
            loads=tuple((ld["node"], ld["p"], ld["q"]) for ld in f["loads"]),
            static_fraction=comp["static_fraction"],
            zip_fractions=tuple(comp["zip_fractions"]),
            motors=tuple(motors))
    except ValueError as exc:
        raise SchemaError(f"{where}.{exc}") from None


def parse_scenario(doc: dict) -> Scenario:
    v = require(doc, "", _SCENARIO)
    run = v["run"]
    try:
        method = RunMethod(run["method"])
    except ValueError:
        raise SchemaError(f"run.method: unknown method {run['method']!r}")
    feeders = [_feeder(f, f"feeders[{i}]") for i, f in enumerate(v["feeders"])]
    try:
        return Scenario(name=v["name"], transmission=v["transmission"],
                        feeders=feeders,
                        events=[Event(**e) for e in v["events"]],
                        method=method, h_macro=run["h_macro"],
                        t_end=run["t_end"], rk_tol=run["rk_tol"],
                        channels=v["outputs"]["channels"])
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
    """Write the log's ``channels``, each one of its columns, or all its
    columns when none are named, as CSV."""
    cols = channels if channels else list(log.columns)
    picked = log.as_array()[:, [log.columns.index(c) for c in cols]]
    write_table(path, ["t"] + cols, np.column_stack([log.time_array, picked]))


def write_table(path: str, header: list[str], rows) -> None:
    """Write ``rows`` under ``header`` as CSV, making the directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savetxt(path, rows, delimiter=",", header=",".join(header),
               comments="", fmt="%.12e")


def read_csv(path: str) -> TimeSeriesLog:
    """The log a CSV of ``write_csv`` holds; one with a header alone
    holds no records."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    if header[0] != "t":
        raise SchemaError(f"{path}: first column must be 't'")
    data = (np.loadtxt(lines, delimiter=",", ndmin=2) if lines
            else np.empty((0, len(header))))
    return TimeSeriesLog(columns=header[1:], times=list(data[:, 0]),
                         rows=[list(r) for r in data[:, 1:]],
                         diverged=False, failure=None)
