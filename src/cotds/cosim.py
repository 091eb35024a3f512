"""Macro-step co-simulation of one hub and its spokes.

Every run, linear or power system, co-simulated or monolithic, goes
through one loop, ``march``, and differs only in the step it hands the
march.
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

A march takes ``CouplingSchedule.n_steps`` macro steps, t_end / H
rounded.  The schedule places each timed event on the first macro
boundary at or after its time, and refuses one after the last step's
start; the march applies a boundary's events, each by its target's
``switch``, then calls ``step(h, switched)``, the names it switched.

The interface vectors, ``current_input`` and ``output()``, are lists of
Python floats, a few per sub-system, so a macro step's exchange is list
concatenation and slicing.  The loop takes any float sequence, so an
``output()`` that is an array works too.  A run takes a record after
every macro step, a few dozen floats: each sub-system's output and one
read of each snapshot channel, by name.  The row is checked finite on
those Python floats, and only then becomes one float array in the log.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
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
    "record_columns",
    "exchange_step",
    "march",
    "run_cosimulation",
]

# worst initial interface gap a co-simulation may start from
INIT_TOL = 1e-6
# an event at most this much after a macro boundary snaps back onto it
_EVENT_SNAP = 1e-12
# most macro steps one run may take.  A run keeps every record, and a
# testcase1 record (39 floats, with its time) takes about 0.5 kB, so 10^6
# steps take about 0.5 GB: about 190 times the longest run a test or a
# probe makes, about 5 200 steps (testcase1 to 13 s at H 0.0025)
_MAX_STEPS = 10 ** 6
_NO_SWITCH = frozenset()  # what a step without events switched


class SubSystem:
    """Stateful solver unit: set inputs, advance a macro step, read outputs.

    ``current_input`` is the input the sub-system last took, as a list
    of Python floats; its length is the size of the input.  ``output()``
    is a new list of Python floats.  ``advance`` must be deterministic
    given prior state and input.

    ``state()`` is everything ``advance`` and ``output()`` read that a
    step may change, as one flat float array, read without solving
    anything; ``set_state(z)`` puts such an array back, so that after
    ``set_state(state())`` the next ``advance`` and ``output()`` are
    bit-identical.  Topology (what ``switch`` changes) and solver caches
    that only start an iteration are not state.
    """

    current_input: list[float]

    def set_input(self, u: Sequence[float]) -> None:
        self.current_input = list(map(float, u))

    def advance(self, h: float) -> None:
        raise NotImplementedError

    def output(self) -> list[float]:
        raise NotImplementedError

    def snapshot(self) -> Mapping[str, float]:
        return {}

    def state(self) -> np.ndarray:
        raise NotImplementedError

    def set_state(self, z: np.ndarray) -> None:
        raise NotImplementedError

    def _state_vector(self, z) -> np.ndarray:
        """A float copy of ``z``, which must be as long as ``state()``;
        ``ValueError`` otherwise."""
        z = np.array(z, dtype=float)
        n = self.state().size
        if z.shape != (n,):
            raise ValueError(f"{type(self).__name__}: a state has {n} "
                             f"components, got shape {z.shape}")
        return z

    def switch(self, action: str, params: Mapping) -> None:
        """Apply a topology event; ``ValueError`` for one not taken.  A
        sub-system that takes events defines ``restart()`` too."""
        raise ValueError(f"{type(self).__name__} does not handle event "
                         f"{action!r}")


class CouplingMethod(enum.Enum):
    PARALLEL = "parallel"
    SERIES = "series"


@dataclass(frozen=True)
class Event:
    time: float
    target: str
    action: str
    params: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class CouplingSchedule:
    h_macro: float
    t_end: float
    events: Sequence[Event] = ()

    def __post_init__(self):
        if not (math.isfinite(self.h_macro) and self.h_macro > 0):
            raise ValueError(f"h_macro: must be finite and positive, got "
                             f"{self.h_macro!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end: must be finite and >= 0, got "
                             f"{self.t_end!r}")
        if not self.t_end / self.h_macro <= _MAX_STEPS:  # inf included
            raise ValueError(f"h_macro: {self.h_macro!r} is too small for "
                             f"t_end {self.t_end!r}: more than {_MAX_STEPS} "
                             "steps")
        for ev in self.events:
            if not self.applies(ev):
                raise ValueError(
                    f"event at t={ev.time} outside [0, "
                    f"{(self.n_steps - 1) * self.h_macro:.6g}], the last "
                    f"step's start")
        # the events applied at each boundary's index, in time order,
        # placed once: the schedule is frozen
        switches: dict[int, list[Event]] = {}
        for ev in sorted(self.events, key=lambda e: e.time):
            switches.setdefault(self.boundary(ev), []).append(ev)
        object.__setattr__(self, "switches", switches)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h_macro))

    def boundary(self, ev: Event) -> int | None:
        """The first boundary index k with ``ev.time <= k·H + 1e-12``,
        where the event applies; ``None`` when no step starts there."""
        k = bisect.bisect_left(range(self.n_steps), ev.time,
                               key=lambda k: k * self.h_macro + _EVENT_SNAP)
        return k if 0 <= ev.time and k < self.n_steps else None

    def applies(self, ev: Event) -> bool:
        """Whether a macro step starts at or after the event's time."""
        return self.boundary(ev) is not None


@dataclass
class TimeSeriesLog:
    """Per-macro-step record of all interface vectors and snapshot channels.

    Each row is one float per column: an array when ``append`` made it,
    a list of floats when ``scenario_io.read_csv`` read it back.
    """

    columns: list[str]
    times: list[float] = field(default_factory=list)
    rows: list[Sequence[float]] = field(default_factory=list)
    diverged: bool = False
    failure: str | None = None

    def append(self, t: float, row: np.ndarray) -> None:
        self.times.append(t)
        self.rows.append(np.asarray(row, dtype=float))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows) if self.rows else np.empty((0, len(self.columns)))

    def channel(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    @property
    def time_array(self) -> np.ndarray:
        return np.asarray(self.times)


def _slices(sizes: Sequence[int]) -> list[slice]:
    """Consecutive slices of the given sizes, laid end to end from 0."""
    ends = itertools.accumulate(sizes)
    return [slice(e - n, e) for n, e in zip(sizes, ends)]


def interface_mismatch(subsystems: Mapping[str, SubSystem]
                       ) -> dict[str, float]:
    """Each spoke's worst gap between an output and the input it feeds.

    Both directions count: the hub's output against the spoke's
    ``current_input``, and the spoke's output against its slice of the
    hub's ``current_input``.  A value equal to the one it feeds has no
    gap, an infinite one included; a nan has a nan gap.
    """
    hub, *spokes = subsystems.values()
    y_hub, u_hub = hub.output(), hub.current_input
    outputs = [sp.output() for sp in spokes]
    to_spoke = _slices([len(sp.current_input) for sp in spokes])
    to_hub = _slices([len(y) for y in outputs])
    gaps = {}
    for name, sp, y, into, back in zip(list(subsystems)[1:], spokes, outputs,
                                       to_spoke, to_hub):
        gap = [0.0 if a == b else a - b for a, b in itertools.chain(
            zip(y_hub[into], sp.current_input, strict=True),
            zip(u_hub[back], y, strict=True))]
        gaps[name] = float(np.max(np.abs(gap)))
    return gaps


def record_columns(layout: Mapping[str, tuple[int, Sequence[str]]]
                   ) -> list[str]:
    """The column names of a record, from each sub-system's name, output
    length and snapshot channels, in record order: ``<name>.out[i]`` for
    each output, then ``<name>.<channel>`` for each channel."""
    columns = []
    for name, (n_out, channels) in layout.items():
        columns += [f"{name}.out[{i}]" for i in range(n_out)]
        columns += [f"{name}.{ch}" for ch in channels]
    return columns


def march(schedule: CouplingSchedule,
          subsystems: Mapping[str, SubSystem],
          step: Callable[[float, frozenset[str]], None]) -> TimeSeriesLog:
    """Switch due events, ``step(h, switched)`` and record, per step.

    ``switched`` names the sub-systems switched on the step's start,
    mostly none.  A record holds each sub-system's ``output()`` and every
    channel of its ``snapshot()``, at t = 0 and after every step.  The
    channels are those of the t = 0 snapshot, in that snapshot's order,
    and are read by name, so a snapshot that loses a key raises
    ``KeyError``; ``record_columns`` names the columns.  OverflowError or
    a non-finite record, the one at t = 0 included, is a divergence, a
    ``NumericFailure`` from an event or a step a sub-system failure;
    either truncates the log with time and cause, keeping the finite
    records made before it.  Any other exception is a programming error
    and propagates.
    """
    channels = {name: list(sub.snapshot()) for name, sub in subsystems.items()}
    log = TimeSeriesLog(columns=record_columns(
        {name: (len(sub.output()), channels[name])
         for name, sub in subsystems.items()}))

    # each sub-system with its snapshot's channels, in record order
    parts = [(sub, channels[name]) for name, sub in subsystems.items()]

    def record():
        row = []
        for sub, chans in parts:
            row.extend(sub.output())
            row.extend(map(sub.snapshot().__getitem__, chans))
        return row

    h, n = schedule.h_macro, schedule.n_steps
    t = 0.0
    for i in range(n + 1):
        row = record()
        if not all(map(math.isfinite, row)):
            log.diverged = True
            log.failure = f"divergence at t={t:.6g}: non-finite record"
            break
        log.append(t, row)
        if i == n:
            break
        at = t  # an event fails at its boundary, a step at the step's end
        try:
            events = schedule.switches.get(i, ())
            for ev in events:
                subsystems[ev.target].switch(ev.action, ev.params)
            at = t + h
            step(h, frozenset(ev.target for ev in events) if events
                 else _NO_SWITCH)
        except OverflowError as exc:
            log.diverged = True
            log.failure = f"divergence at t={at:.6g}: {exc}"
            break
        except NumericFailure as exc:
            log.failure = f"sub-system failure at t={at:.6g}: {exc}"
            break
        t = (i + 1) * h
    return log


def exchange_step(subsystems: Mapping[str, SubSystem],
                  method: CouplingMethod
                  ) -> Callable[[float, frozenset[str]], None]:
    """One macro step of the hub and its spokes: ``step(h, switched)``.

    Inputs are held; a switched spoke restarts before its output is read.
    """
    (_, hub), *spokes = subsystems.items()
    slices = _slices([len(sp.current_input) for _, sp in spokes])

    def step(h, switched):
        if method is CouplingMethod.PARALLEL:
            y_hub = hub.output()
        u_hub = []
        for name, sp in spokes:
            if name in switched:
                sp.restart()
            u_hub.extend(sp.output())
        hub.set_input(u_hub)
        hub.advance(h)
        if method is CouplingMethod.SERIES:
            y_hub = hub.output()
        for (_, sp), sl in zip(spokes, slices):
            sp.set_input(y_hub[sl])
            sp.advance(h)

    return step


def run_cosimulation(schedule: CouplingSchedule,
                     subsystems: Mapping[str, SubSystem],
                     method: CouplingMethod) -> TimeSeriesLog:
    """March the hub and its spokes to t_end, exchanging per ``method``.

    Raises ``ValueError`` when an initial interface gap exceeds ``INIT_TOL``
    or is nan.
    """
    gaps = {name: gap for name, gap in interface_mismatch(subsystems).items()
            if not gap <= INIT_TOL}
    if gaps:
        raise ValueError(f"inconsistent initialization: interface gaps "
                         f"{gaps} exceed {INIT_TOL:.0e}")
    return march(schedule, subsystems, exchange_step(subsystems, method))
