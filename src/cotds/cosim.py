"""Macro-step co-simulation of one hub and its spokes.

Every run, linear or power system, co-simulated or monolithic, goes
through one loop, ``march``, and differs only in the step and the event
function it hands the march.
``exchange_step`` supplies the co-simulation step.  Its sub-systems form
a star: the first is the hub (the transmission system, or the A half of
the linear test system), the others are its spokes, in order.  The hub's
output is the spokes' inputs laid end to end, each slice as long as that
spoke's ``current_input``; the hub's input is the spokes' outputs laid
end to end.  In one macro step the hub advances on the spokes'
start-of-step outputs, then each spoke advances on its slice of the
hub's output:

- parallel (Jacobi exchange): the hub's start-of-step output;
- series (Gauss-Seidel exchange): the hub's output after its step.

Timed events snap to the first macro boundary at or after their time and
are applied before that boundary's step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .integrators import NumericFailure

__all__ = [
    "SubSystem",
    "CouplingMethod",
    "CouplingSchedule",
    "Event",
    "TimeSeriesLog",
    "INIT_TOL",
    "interface_mismatch",
    "exchange_step",
    "march",
    "run_cosimulation",
    "CosimError",
]

# worst initial interface gap a co-simulation may start from
INIT_TOL = 1e-6


class CosimError(RuntimeError):
    pass


class SubSystem:
    """Stateful solver unit: set inputs, advance a macro step, read outputs.

    ``current_input`` is the input the sub-system last took, through
    ``initialize`` or ``set_input``; its size is the size of the input.
    ``advance`` must be deterministic given prior state and input, and
    ``output()`` right after ``initialize`` must be the steady-state output
    consistent with the initial input.
    """

    current_input: np.ndarray

    def initialize(self, inputs: np.ndarray) -> None:
        raise NotImplementedError

    def set_input(self, u: np.ndarray) -> None:
        self.current_input = np.asarray(u, dtype=float).copy()

    def advance(self, h: float) -> None:
        raise NotImplementedError

    def output(self) -> np.ndarray:
        raise NotImplementedError

    def snapshot(self) -> Mapping[str, float]:
        return {}

    def apply_event(self, action: str, params: Mapping) -> None:
        raise CosimError(f"{type(self).__name__} does not handle event {action!r}")


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
    h_macro: float
    t_end: float
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


def _slices(sizes: Sequence[int]) -> list[slice]:
    """Consecutive slices of the given sizes, laid end to end from 0."""
    ends = np.cumsum(sizes)
    return [slice(int(e - n), int(e)) for n, e in zip(sizes, ends)]


def interface_mismatch(subsystems: Mapping[str, SubSystem]
                       ) -> dict[str, float]:
    """Each spoke's worst gap between an output and the input it feeds.

    Both directions count: the hub's output against the spoke's
    ``current_input``, and the spoke's output against its slice of the
    hub's ``current_input``.
    """
    hub, *spokes = subsystems.values()
    y_hub, u_hub = hub.output(), hub.current_input
    outputs = [sp.output() for sp in spokes]
    to_spoke = _slices([sp.current_input.size for sp in spokes])
    to_hub = _slices([y.size for y in outputs])
    gaps = {}
    for name, sp, y, into, back in zip(list(subsystems)[1:], spokes, outputs,
                                       to_spoke, to_hub):
        gap = np.concatenate([y_hub[into] - sp.current_input, u_hub[back] - y])
        gaps[name] = float(np.max(np.abs(gap)))
    return gaps


def march(schedule: CouplingSchedule,
          subsystems: Mapping[str, SubSystem],
          step: Callable[[float], None],
          fire: Callable[[Event], None]) -> TimeSeriesLog:
    """Fire due events, ``step(h)`` and record, once per macro step.

    A record holds each sub-system's ``output()`` and every channel of
    its ``snapshot()``, at t = 0 and after every step.  The channels are
    those of the t = 0 snapshot, in that snapshot's order, and are read
    by name, so a snapshot that loses a key raises ``KeyError``.
    OverflowError, FloatingPointError or a non-finite record is a
    divergence, a ``NumericFailure`` from an event or a step a sub-system
    failure; either truncates the log with time and cause, keeping the
    finite records made before it.  Any other exception is a programming
    error and propagates.
    """
    channels = {name: list(sub.snapshot()) for name, sub in subsystems.items()}
    columns = []
    for name, sub in subsystems.items():
        columns += [f"{name}.out[{i}]"
                    for i in range(np.asarray(sub.output()).size)]
        columns += [f"{name}.{ch}" for ch in channels[name]]
    log = TimeSeriesLog(columns=columns)

    def record():
        row = []
        for name, sub in subsystems.items():
            row.extend(np.asarray(sub.output(), dtype=float))
            snap = sub.snapshot()
            row.extend(snap[ch] for ch in channels[name])
        return np.array(row, dtype=float)

    log.append(0.0, record())
    events = sorted(schedule.events, key=lambda e: e.time)
    next_event = 0
    h = schedule.h_macro
    t = 0.0
    for i in range(int(round(schedule.t_end / h))):
        at = t  # an event fails at its boundary, a step at the step's end
        try:
            while (next_event < len(events)
                   and events[next_event].time <= t + 1e-12):
                fire(events[next_event])
                next_event += 1
            at = t + h
            step(h)
        except (OverflowError, FloatingPointError) as exc:
            log.diverged = True
            log.failure = f"divergence at t={at:.6g}: {exc}"
            break
        except NumericFailure as exc:
            log.failure = f"sub-system failure at t={at:.6g}: {exc}"
            break
        t = (i + 1) * h
        row = record()
        if not np.all(np.isfinite(row)):
            log.diverged = True
            log.failure = f"divergence at t={t:.6g}: non-finite record"
            break
        log.append(t, row)
    return log


def exchange_step(subsystems: Mapping[str, SubSystem],
                  method: CouplingMethod) -> Callable[[float], None]:
    """One macro step of the hub and its spokes: ``step(h)``.

    Inputs are held constant within the step.
    """
    hub, *spokes = subsystems.values()
    slices = _slices([sp.current_input.size for sp in spokes])

    def step(h):
        if method is CouplingMethod.PARALLEL:
            y_hub = hub.output()
        hub.set_input(np.concatenate([sp.output() for sp in spokes]))
        hub.advance(h)
        if method is CouplingMethod.SERIES:
            y_hub = hub.output()
        for sp, sl in zip(spokes, slices):
            sp.set_input(y_hub[sl])
            sp.advance(h)

    return step


def run_cosimulation(schedule: CouplingSchedule,
                     subsystems: Mapping[str, SubSystem],
                     method: CouplingMethod) -> TimeSeriesLog:
    """March the hub and its spokes to t_end, exchanging per ``method``.

    Refuses to start when an initial interface gap exceeds ``INIT_TOL``.
    """
    gaps = {name: gap for name, gap in interface_mismatch(subsystems).items()
            if gap > INIT_TOL}
    if gaps:
        raise CosimError(f"inconsistent initialization: interface gaps "
                         f"{gaps} exceed {INIT_TOL:.0e}")

    def fire(ev):
        subsystems[ev.target].apply_event(ev.action, ev.params)

    return march(schedule, subsystems, exchange_step(subsystems, method),
                 fire)
