"""Generic macro-step co-simulation orchestrator.

Every run, co-simulated or monolithic, goes through one loop, ``march``,
and differs only in the step and the event function it hands the march.
``run_cosimulation`` supplies the two exchange schedules:

- parallel: every sub-system advances using the other sub-systems'
  start-of-step outputs (Jacobi exchange);
- series: first-tier sub-systems advance first, their fresh outputs are
  delivered downstream, then the remaining sub-systems advance
  (Gauss-Seidel exchange).  Links pointing against the tier order are
  "stale" and always carry the previous step's value.

Timed events snap to the first macro boundary at or after their time and
are applied before that boundary's step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "SubSystem",
    "CouplingLink",
    "CouplingMethod",
    "CouplingSchedule",
    "Event",
    "TimeSeriesLog",
    "ConsistencyReport",
    "march",
    "run_cosimulation",
    "verify_initial_consistency",
    "CosimError",
]


class CosimError(RuntimeError):
    pass


class SubSystem:
    """Stateful solver unit: set inputs, advance a macro step, read outputs.

    ``advance`` must be deterministic given prior state and input, and
    ``output()`` right after ``initialize`` must be the steady-state output
    consistent with the initial input.
    """

    def initialize(self, inputs: np.ndarray) -> None:
        raise NotImplementedError

    def set_input(self, u: np.ndarray) -> None:
        raise NotImplementedError

    def advance(self, h: float) -> None:
        raise NotImplementedError

    def output(self) -> np.ndarray:
        raise NotImplementedError

    def snapshot(self) -> Mapping[str, float]:
        return {}

    def apply_event(self, action: str, params: Mapping) -> None:
        raise CosimError(f"{type(self).__name__} does not handle event {action!r}")


@dataclass(frozen=True)
class CouplingLink:
    """Connects a slice of one sub-system's output to a slice of another's input."""

    source: str
    source_range: tuple[int, int]  # [start, stop)
    sink: str
    sink_range: tuple[int, int]

    def __post_init__(self):
        if (self.source_range[1] - self.source_range[0]
                != self.sink_range[1] - self.sink_range[0]):
            raise ValueError("source and sink index ranges must have equal length")


class CouplingMethod(enum.Enum):
    PARALLEL = "parallel"
    SERIES = "series"


@dataclass(frozen=True)
class Event:
    time: float
    target: str
    action: str
    params: Mapping = field(default_factory=dict)


@dataclass
class CouplingSchedule:
    method: CouplingMethod
    h_macro: float
    t_end: float
    series_order: Sequence[str] = ()  # first tier, then dependents
    events: Sequence[Event] = ()

    def __post_init__(self):
        if self.h_macro <= 0:
            raise ValueError("h_macro must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        for ev in self.events:
            if not (0 <= ev.time <= self.t_end):
                raise ValueError(f"event at t={ev.time} outside [0, t_end]")


@dataclass
class TimeSeriesLog:
    """Per-macro-step record of all interface vectors and snapshot channels."""

    columns: list[str]
    times: list[float] = field(default_factory=list)
    rows: list[np.ndarray] = field(default_factory=list)
    diverged: bool = False
    failure: str | None = None

    def append(self, t: float, row: np.ndarray) -> None:
        self.times.append(t)
        self.rows.append(np.asarray(row, dtype=float))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows) if self.rows else np.empty((0, len(self.columns)))

    def channel(self, name: str) -> np.ndarray:
        return self.as_array()[:, self.columns.index(name)]

    @property
    def time_array(self) -> np.ndarray:
        return np.asarray(self.times)


@dataclass
class ConsistencyReport:
    mismatches: dict  # link -> worst absolute mismatch
    tol: float

    @property
    def worst(self) -> float:
        return max(self.mismatches.values()) if self.mismatches else 0.0

    @property
    def consistent(self) -> bool:
        return self.worst <= self.tol

    def flagged(self) -> list:
        return [k for k, v in self.mismatches.items() if v > self.tol]


def _input_sizes(subsystems: Mapping[str, SubSystem],
                 links: Sequence[CouplingLink]) -> dict[str, int]:
    sizes = {name: 0 for name in subsystems}
    for lk in links:
        sizes[lk.sink] = max(sizes[lk.sink], lk.sink_range[1])
    return sizes


def _validate_links(subsystems, links):
    fed: set[tuple[str, int]] = set()
    for lk in links:
        if lk.source not in subsystems or lk.sink not in subsystems:
            raise CosimError(f"link references unknown sub-system: {lk}")
        for idx in range(*lk.sink_range):
            if (lk.sink, idx) in fed:
                raise CosimError(
                    f"input index {idx} of {lk.sink!r} fed by two links")
            fed.add((lk.sink, idx))


def _tiers(subsystems, links, series_order):
    """The non-empty of (first tier, second tier); there are no others."""
    order = list(series_order)
    if not order or set(order) != set(subsystems):
        raise CosimError("series_order must list every sub-system exactly once")
    pos = {name: i for i, name in enumerate(order)}
    # a sub-system is second-tier if any forward (non-stale) link feeds it
    downstream = {lk.sink for lk in links if pos[lk.source] < pos[lk.sink]}
    tier1 = [n for n in order if n not in downstream]
    tier2 = [n for n in order if n in downstream]
    for lk in links:
        if lk.source in downstream and lk.sink in downstream:
            raise CosimError("series schedule supports exactly two tiers; "
                             f"link {lk.source}->{lk.sink} is tier-2 to tier-2")
    return [tier for tier in (tier1, tier2) if tier]


def verify_initial_consistency(subsystems: Mapping[str, SubSystem],
                               links: Sequence[CouplingLink],
                               tol: float) -> ConsistencyReport:
    """Compare every link's source output with its sink's assumed input."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    mismatches = {}
    inputs = {name: _assumed_input(sub) for name, sub in subsystems.items()}
    for lk in links:
        src = np.asarray(subsystems[lk.source].output())[slice(*lk.source_range)]
        snk = inputs[lk.sink][slice(*lk.sink_range)]
        key = (lk.source, lk.sink, lk.sink_range)
        mismatches[key] = float(np.max(np.abs(src - snk))) if src.size else 0.0
    return ConsistencyReport(mismatches, tol)


def _assumed_input(sub: SubSystem) -> np.ndarray:
    u = getattr(sub, "current_input", None)
    if u is None:
        raise CosimError(f"{type(sub).__name__} does not expose current_input")
    return np.asarray(u, dtype=float)


def march(schedule: CouplingSchedule,
          subsystems: Mapping[str, SubSystem],
          step: Callable[[float], None],
          fire: Callable[[Event], None],
          snapshot_channels: Mapping[str, Sequence[str]] | None = None,
          ) -> TimeSeriesLog:
    """Fire due events, ``step(h)`` and record, once per macro step.

    A record holds each sub-system's ``output()`` and snapshot channels,
    at t = 0 and after every step.  OverflowError, FloatingPointError or
    a non-finite record is a divergence, any other exception from a step
    a sub-system failure; either truncates the log with time and cause.
    """
    snapshot_channels = snapshot_channels or {}
    columns = []
    for name, sub in subsystems.items():
        columns += [f"{name}.out[{i}]"
                    for i in range(np.asarray(sub.output()).size)]
        columns += [f"{name}.{ch}" for ch in snapshot_channels.get(name, ())]
    log = TimeSeriesLog(columns=columns)

    def record(t):
        row = []
        for name, sub in subsystems.items():
            row.extend(np.asarray(sub.output(), dtype=float))
            snap = sub.snapshot()
            row.extend(snap[ch] for ch in snapshot_channels.get(name, ()))
        log.append(t, np.array(row, dtype=float))

    record(0.0)
    events = sorted(schedule.events, key=lambda e: e.time)
    next_event = 0
    h = schedule.h_macro
    t = 0.0
    for i in range(int(round(schedule.t_end / h))):
        while next_event < len(events) and events[next_event].time <= t + 1e-12:
            fire(events[next_event])
            next_event += 1
        try:
            step(h)
        except (OverflowError, FloatingPointError) as exc:
            log.diverged = True
            log.failure = f"divergence at t={t + h:.6g}: {exc}"
            break
        except Exception as exc:  # solver failure: truncate with cause
            log.failure = f"sub-system failure at t={t + h:.6g}: {exc}"
            break
        t = (i + 1) * h
        record(t)
        if not np.all(np.isfinite(log.rows[-1])):
            log.diverged = True
            log.failure = f"divergence at t={t:.6g}: non-finite record"
            break
    return log


def run_cosimulation(schedule: CouplingSchedule,
                     subsystems: Mapping[str, SubSystem],
                     links: Sequence[CouplingLink],
                     init_tol: float = 1e-6,
                     snapshot_channels: Mapping[str, Sequence[str]] | None = None,
                     ) -> TimeSeriesLog:
    """March to t_end, exchanging interface data per schedule each step.

    Inputs are held constant within a macro step.  Refuses to start when
    the initial interface values are inconsistent beyond init_tol.
    """
    _validate_links(subsystems, links)
    report = verify_initial_consistency(subsystems, links, init_tol)
    if not report.consistent:
        raise CosimError(
            f"inconsistent initialization: worst interface mismatch "
            f"{report.worst:.3e} exceeds {init_tol:.3e} on {report.flagged()}")

    tiers = ([list(subsystems)] if schedule.method is CouplingMethod.PARALLEL
             else _tiers(subsystems, links,
                         schedule.series_order or list(subsystems)))
    inputs = {name: _assumed_input(sub).copy()
              for name, sub in subsystems.items()}

    def step(h):
        # stale exchange: everyone sees start-of-step outputs first; in
        # series, fresh first-tier outputs then flow downstream before
        # tier 2 moves
        sources = list(subsystems)
        for tier in tiers:
            outputs = {name: np.asarray(subsystems[name].output(), dtype=float)
                       for name in sources}
            for lk in links:
                if lk.source in outputs:
                    inputs[lk.sink][slice(*lk.sink_range)] = \
                        outputs[lk.source][slice(*lk.source_range)]
            for name in tier:
                subsystems[name].set_input(inputs[name])
                subsystems[name].advance(h)
            sources = tier

    def fire(ev):
        subsystems[ev.target].apply_event(ev.action, ev.params)

    return march(schedule, subsystems, step, fire, snapshot_channels)
