"""Scenario semantics: wiring power models into the co-simulation core.

A scenario names a transmission dataset, attaches distribution feeders to
interface buses, and selects a run method and macro step.  All three
methods march the same initialised sub-systems with ``cosim.march``, so
they log the same channels, switch events alike and report failures
alike.  Parallel and series hand it ``cosim.exchange_step``, with the
transmission sub-system as the hub and one distribution sub-system per
interface bus as its spokes.  Monolithic hands it
``MonolithicDae.advance``, one trapezoidal step of the whole system as
one DAE, with no exchange.  That DAE only stacks the blocks the
co-simulation path solves (the transmission DAE, and each feeder's motor
derivatives and KCL mismatch) and writes its state back into the same
component objects, on which events act.  Both paths thus solve one
model, and any disagreement between them is coupling error, not
modeling error.

``check_scenario`` owns every rule about a whole scenario, and
``FeederSpec`` those about one feeder.  ``Scenario`` calls the former
when made, and ``run_scenario`` again, before anything is built.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cosim import (CouplingMethod, CouplingSchedule, Event, TimeSeriesLog,
                    march, record_columns, run_cosimulation)
from .feeder import (DistributionFeeder, DistributionSubSystem, FeederBranch,
                     MotorUnit)
from .integrators import DaeSystem, JacobianCache, trapezoidal_dae_step
from .loads import InductionMotor, InductionMotorParams, ZipLoadParams
# bench/tracing.py patches engine.zip_power by name; engine never calls it,
# so that counter counts nothing here.  The import goes when the
# benchmark's patch list drops it.
from .loads import zip_power  # noqa: F401
from .machines import GeneratorBank
from .power_network import PowerFlowError, TransmissionNetwork, load_network
from .transmission import TransmissionDae, TransmissionSubSystem

__all__ = [
    "RunMethod", "MotorSpec", "FeederSpec", "Scenario", "RunResult",
    "Verdict", "check_scenario", "scenario_columns",
    "build_subsystems", "iterative_td_powerflow_init", "run_scenario",
    "detect_convergence", "compare_runs",
]


class RunMethod(enum.Enum):
    PARALLEL = "parallel"
    SERIES = "series"
    MONOLITHIC = "monolithic"


class Verdict(enum.Enum):
    CONVERGED = "Converged"
    OSCILLATORY = "Oscillatory"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class MotorSpec:
    """One induction motor: ``share`` of the feeder's total motor power."""

    name: str
    node: int
    share: float
    machine: InductionMotorParams
    active: bool


@dataclass(frozen=True)
class FeederSpec:
    """One radial feeder on transmission bus ``bus``.

    The branches grow a tree from the substation, node 0, each listed
    after its parent's own branch, and number its nodes 0..N; none has
    a negative r or zero impedance (r = x = 0), which the feeder divides
    by; x takes either sign, a series capacitor's is negative.  Every load
    and motor sits on one of those nodes.  The ZIP fractions follow
    ``ZipLoadParams``' rule.  Every motor's share is positive, and so is
    the budget they share (``motor_budget``), since a motor has no running
    state that draws no or negative power; a single load may be negative,
    as distributed generation is.  A ``ValueError`` starts with the
    offending field's path (``loads[1].node: ...``).
    """

    bus: int
    branches: tuple[FeederBranch, ...]
    loads: tuple[tuple[int, float, float], ...]  # (node, p, q)
    static_fraction: float
    zip_fractions: tuple[float, float, float]  # (z, i, p)
    motors: tuple[MotorSpec, ...]
    active: bool

    def __post_init__(self):
        nodes = {0}
        for i, br in enumerate(self.branches):
            if not br.r >= 0:  # a negative resistance is a source
                raise ValueError(f"branches[{i}].r: must not be negative, "
                                 f"got {br.r!r}")
            if br.r == 0 and br.x == 0:
                raise ValueError(f"branches[{i}]: zero impedance (r = x = 0)")
            if br.parent not in nodes or br.child in nodes:
                raise ValueError(
                    f"branches[{i}]: {br.parent} -> {br.child} does not grow "
                    "the tree from node 0, each branch after its parent's")
            nodes.add(br.child)
        if nodes != set(range(len(nodes))):
            raise ValueError(f"branches: nodes {sorted(nodes)} are not "
                             f"numbered 0..{len(nodes) - 1}")
        placed = [(f"loads[{i}]", node) for i, (node, _, _)
                  in enumerate(self.loads)]
        placed += [(f"composition.motors[{i}]", m.node)
                   for i, m in enumerate(self.motors)]
        for where, node in placed:
            if node not in nodes:
                raise ValueError(f"{where}.node: {node} is not a node of the "
                                 f"feeder, 0..{len(nodes) - 1}")
        if not (0.0 <= self.static_fraction <= 1.0):
            raise ValueError("composition: static_fraction must be in [0, 1]")
        try:
            ZipLoadParams(0.0, 0.0, *self.zip_fractions)
        except ValueError as exc:
            raise ValueError(f"composition: {exc}") from None
        for i, m in enumerate(self.motors):
            if not m.share > 0:
                raise ValueError(f"composition.motors[{i}].share: must be "
                                 f"positive, got {m.share!r}")
        if self.motors:
            total = sum(m.share for m in self.motors)
            if abs(total - 1.0) > 1e-9:
                raise ValueError("composition: motor shares must sum to 1")
            if not self.motor_budget > 0:
                raise ValueError(
                    "composition: the motors' budget, (1 - static_fraction) "
                    "times the loads' total p, must be positive, got "
                    f"{self.motor_budget!r}")

    @property
    def motor_budget(self) -> float:
        """The active power the motors share between them."""
        return (1.0 - self.static_fraction) * sum(p for _, p, _ in self.loads)


@dataclass
class Scenario:
    """A T-D run; ``check_scenario`` refuses one that cannot run.  The
    scenario file's spec (``scenario_io``) owns the defaults."""

    name: str
    transmission: str
    feeders: list[FeederSpec]
    events: list[Event]
    method: RunMethod
    h_macro: float
    t_end: float
    rk_tol: float
    channels: list[str]

    def __post_init__(self):
        check_scenario(self)


@dataclass
class RunResult:
    """One run's log, verdict and cost.

    ``newton`` maps the owner of each trapezoidal Newton solve (``T`` in
    co-simulation, ``monolithic`` for the stacked DAE) to its counters:
    Jacobian builds, residual evaluations, steps solved with a reused
    Jacobian, and steps whose reused-Jacobian update was dropped for the
    damped Newton.
    """

    scenario: str
    method: RunMethod
    h_macro: float
    log: TimeSeriesLog
    verdict: Verdict
    wall_time: float
    newton: dict[str, dict[str, int]] = field(default_factory=dict)


# -- construction -----------------------------------------------------------


def _build_feeder(fs: FeederSpec, omega_s: float) -> DistributionFeeder:
    # the loads listed at one node draw together, as one load
    at_node = {}
    for node, p, q in fs.loads:
        if node in at_node:
            p0, q0 = at_node[node]
            p, q = p0 + p, q0 + q
        at_node[node] = p, q
    zp, zi, zc = fs.zip_fractions
    zips = {node: ZipLoadParams(p0=fs.static_fraction * p,
                                q0=fs.static_fraction * q,
                                z_frac=zp, i_frac=zi, p_frac=zc)
            for node, (p, q) in at_node.items()}
    motors = []
    for ms in fs.motors:
        motor = InductionMotor(ms.machine, omega_s)
        motors.append(MotorUnit(name=ms.name, node=ms.node, motor=motor,
                                p_target=ms.share * fs.motor_budget,
                                active=ms.active))
    return DistributionFeeder(list(fs.branches), zips, motors,
                              active=fs.active)


def build_subsystems(scenario: Scenario):
    """(sub-systems, D sub-systems, interface buses), in interface-bus order.

    The sub-systems are the hub ``T`` and its spokes, one ``D<bus>`` per
    interface bus; the second element holds the spokes alone.
    """
    return _build(scenario, load_network(scenario.transmission))


def _build(scenario: Scenario, net: TransmissionNetwork):
    """``build_subsystems`` on the scenario's network, already loaded."""
    bank = GeneratorBank.from_params(net.gen_params, net.omega_s)

    by_bus: dict[int, list[DistributionFeeder]] = {}
    for fs in scenario.feeders:
        by_bus.setdefault(fs.bus, []).append(_build_feeder(fs, net.omega_s))
    interface_buses = sorted(by_bus)

    # nominal loads at feeder buses are replaced by the feeders themselves;
    # any remaining transmission load stays as constant-power ZIP
    static = {bus: ZipLoadParams(p0=s.real, q0=s.imag)
              for bus, s in net.loads.items() if bus not in by_bus}

    dae = TransmissionDae(net, bank, static, interface_buses)
    dsubs = {f"D{bus}": DistributionSubSystem(by_bus[bus], scenario.rk_tol)
             for bus in interface_buses}
    subsystems = {"T": TransmissionSubSystem(dae), **dsubs}
    return subsystems, dsubs, interface_buses


def scenario_columns(scenario: Scenario,
                     net: TransmissionNetwork) -> list[str]:
    """The columns of the scenario's record, from its feeder specs and
    its network alone: the names ``march`` gives the sub-systems that
    ``build_subsystems`` makes of them."""
    buses = sorted({fs.bus for fs in scenario.feeders})
    layout = {"T": (2 * len(buses), TransmissionSubSystem.snapshot_channels(
        len(net.gen_buses), net.bus_ids))}
    for bus in buses:
        layout[f"D{bus}"] = (2, DistributionSubSystem.snapshot_channels(
            [([m.name for m in fs.motors], len(fs.branches) + 1)
             for fs in scenario.feeders if fs.bus == bus]))
    return record_columns(layout)


_TD_INIT_TOL = 1e-8  # largest interface-power change at the fixed point
_TD_INIT_PASSES = 50


def iterative_td_powerflow_init(tsub: TransmissionSubSystem,
                                dsubs: dict[str, DistributionSubSystem],
                                interface_buses: list[int]) -> None:
    """Alternate transmission and feeder power flows to a fixed point.

    On return every sub-system's output is consistent with every other's
    input, and all internal states are at equilibrium.  Each pass solves
    T's power flow with the feeders' consumed powers as constant-power
    loads, then every feeder's steady state at its interface voltage;
    once the powers move by at most ``_TD_INIT_TOL`` one more pass puts
    every side at the settled powers.  No pass restarts cold: T's power
    flow starts from its last solution and kept Jacobian, and each feeder
    from its last node profile.  A motor with no running state at its
    voltage raises ``FeederError``; a power flow that fails, or powers
    that do not settle in ``_TD_INIT_PASSES`` passes, ``PowerFlowError``.
    """
    u_t = [0.0] * (2 * len(interface_buses))
    for k, bus in enumerate(interface_buses):
        d = dsubs[f"D{bus}"]
        # each load at its nominal power, each running motor at its target
        # with a reactive guess at rated power factor ~0.9 lagging
        s = sum(complex(p, q) for fd in d.feeders if fd.active
                for p, q in [*((z.p0, z.q0) for z in fd.zip_loads.values()),
                             *((m.p_target, 0.48 * m.p_target)
                               for m in fd.motors if m.active)])
        u_t[2 * k], u_t[2 * k + 1] = s.real, s.imag

    settled = False  # then one more pass starts every side from u_t
    for _ in range(_TD_INIT_PASSES + 1):
        tsub.initialize(u_t)
        v_if = tsub.output()
        u_new = []
        for k, bus in enumerate(interface_buses):
            d = dsubs[f"D{bus}"]
            d.initialize(v_if[2 * k:2 * k + 2])
            u_new.extend(d.output())
        if settled:
            return
        settled = all(abs(a - b) <= _TD_INIT_TOL for a, b in zip(u_new, u_t))
        u_t = u_new
    raise PowerFlowError("T-D power flow initialisation did not converge")


# -- convergence detector and comparison ------------------------------------


def detect_convergence(log: TimeSeriesLog,
                       window: tuple[float, float] | None = None) -> Verdict:
    """Classify a run as Converged / Oscillatory / Diverged.

    Diverged: the log was cut short (by divergence or by any sub-system
    failure) or contains non-finite samples.  Oscillatory: some channel
    with meaningful variation in the window is still oscillating at the
    end of the window with an envelope that has not decayed, whatever the
    oscillation's period; see ``_oscillatory``.
    Otherwise Converged.
    """
    arr = log.as_array()
    if (log.diverged or log.failure is not None
            or not np.all(np.isfinite(arr))):
        return Verdict.DIVERGED
    t = np.asarray(log.times)
    lo, hi = (t[0], t[-1]) if window is None else window
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < 4:
        return Verdict.CONVERGED
    sub = arr[mask]
    spans = sub.max(axis=0) - sub.min(axis=0)
    # channels with no meaningful variation carry only float jitter
    cols = [c for c in range(len(log.columns)) if spans[c] > 1e-8]
    for c in sorted(cols, key=lambda c: -spans[c]):
        if _oscillatory(sub[:, c]):
            return Verdict.OSCILLATORY
    return Verdict.CONVERGED


# a move smaller than this fraction of the channel's span is solver jitter,
# not a turning point
_HYSTERESIS = 0.1


def _turning_points(x: np.ndarray, delta: float) -> np.ndarray:
    """Indices of the alternating extrema of x that are turning points.

    An extremum counts only when the signal moved by more than ``delta``
    both into it and out of it, so the window's first and last samples
    never count, and neither do wiggles of ``delta`` or less.
    """
    points = []
    i_hi = i_lo = 0
    trend = 0
    for k in range(1, x.size):
        if trend <= 0 and x[k] - x[i_lo] > delta:
            if trend < 0:
                points.append(i_lo)
            trend, i_hi = 1, k
        elif trend >= 0 and x[i_hi] - x[k] > delta:
            if trend > 0:
                points.append(i_hi)
            trend, i_lo = -1, k
        if x[k] > x[i_hi]:
            i_hi = k
        if x[k] < x[i_lo]:
            i_lo = k
    return np.array(points, dtype=int)


def _oscillatory(x: np.ndarray) -> bool:
    """True when x still oscillates at the end with an undecayed envelope.

    A swing is the move between two successive turning points; the
    partial swings before the first and after the last are not counted.
    Three conditions must all hold:

    - at least three swings (four turning points);
    - the envelope has not decayed: the last full period (the sum of
      the last two swings) is within the hysteresis of the largest full
      period of the window;
    - the signal is still turning: since the last turning point it has
      spent at most 1.5 times the longest swing duration, plus one
      sample.  An undamped oscillation confirms its next turning point
      within one swing plus the time to retreat by the hysteresis (a
      fifth of a swing for a sinusoid at 10%), so a longer quiet tail
      means the run has settled, as after a motor start that overshoots
      once and then stays flat.
    """
    delta = _HYSTERESIS * float(x.max() - x.min())
    points = _turning_points(x, delta)
    if points.size < 4:
        return False
    swings = np.abs(np.diff(x[points]))
    periods = swings[1:] + swings[:-1]
    if periods.max() - periods[-1] > delta:
        return False
    return x.size - 1 - points[-1] <= 1.5 * np.diff(points).max() + 1


@dataclass
class DeviationReport:
    channels: list[str]
    max_abs: dict[str, float]
    rms: dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.max_abs.values()) if self.max_abs else 0.0


def compare_runs(a: TimeSeriesLog, b: TimeSeriesLog,
                 channels: list[str] | None = None) -> DeviationReport:
    """Per-channel max-abs and RMS deviation, b resampled onto a's grid.

    ``ValueError`` when a ends after b by more than b's last step: b's
    last value would stand in for the times b never reached.
    """
    if channels is None:
        channels = sorted(set(a.columns) & set(b.columns))
    if not channels:
        raise ValueError("runs share no channels")
    missing = [c for c in channels
               if c not in a.columns or c not in b.columns]
    if missing:
        raise ValueError(f"channels missing from a run: {missing}")
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if not (ta.size and tb.size):
        raise ValueError("a run has no records")
    if ta[-1] - tb[-1] > (tb[-1] - tb[-2] if tb.size > 1 else 0.0):
        raise ValueError(f"run a ends at t={ta[-1]:.6g}, after run b's end "
                         f"at t={tb[-1]:.6g}; give the shorter run first")
    rows_a, rows_b = a.as_array(), b.as_array()
    max_abs, rms = {}, {}
    for c in channels:
        xa = rows_a[:, a.columns.index(c)]
        xb = np.interp(ta, tb, rows_b[:, b.columns.index(c)])
        d = xa - xb
        max_abs[c] = float(np.max(np.abs(d)))
        rms[c] = float(np.sqrt(np.mean(d * d)))
    return DeviationReport(list(channels), max_abs, rms)


# -- monolithic reference ----------------------------------------------------


class MonolithicDae(DaeSystem):
    """The transmission DAE and every feeder, stacked into one DAE.

    It holds no physics of its own.  The network and generator block is
    ``TransmissionDae.f``/``g``, whose input ``u`` is the feeders' source
    power at the current iterate: the same [P, Q] per interface bus that
    co-simulation holds fixed over a macro step.  Each feeder adds its
    motor derivatives to ``f`` and its KCL mismatch to ``g``.

    Differential states: the generator blocks, then three per motor,
    feeder by feeder.  Algebraic unknowns: real then imaginary bus
    voltages, then for every feeder the real then imaginary voltages of
    nodes 1..N (node 0 is the interface bus).  ``gather`` and ``scatter``
    pack and unpack them from and into the feeders' own form.

    ``advance(h, switched)`` is one trapezoidal step, from and back into
    the component objects; ``newton_cache`` keeps its Jacobian and
    counters, and the step's end point with ``f`` there, which the next
    step reuses when it gathers that point back.  ``f`` also reads the
    feeders' and motors' ``active`` flags, so a step told of switched
    sub-systems (``switched``) drops the end point: switching a motor off
    moves no state.  ``scatter``, not ``restart``, writes their outputs.
    ``g`` keeps the interface power at the point it last evaluated.  A step
    whose cache keeps its end point ended on that point, so ``advance``
    hands that power to ``scatter``; it computes the power only when no
    end point is kept.
    """

    def __init__(self, tsub: TransmissionSubSystem,
                 dsubs: dict[str, DistributionSubSystem]):
        """``dsubs`` in the order of the transmission's interface buses;
        their outputs become the stacked model's own source power."""
        self.newton_cache = JacobianCache()
        self.tsub = tsub
        self.tdae = tdae = tsub.dae
        self.dsubs = list(dsubs.values())
        self.n_if = len(self.dsubs)
        # per feeder: the feeder, its interface index, the slice of x
        # holding its motor states, and the slice of the stacked node
        # voltages holding its nodes 0..N
        self._blocks = []
        re_idx, im_idx = [], []
        nx, ny = tdae.n_x, tdae.n_y
        for k, bus in enumerate(tdae.interface_buses):
            bus_i = tdae.net.idx(bus)
            for fd in self.dsubs[k].feeders:
                m, n_states = fd.n_nodes - 1, 3 * len(fd.motors)
                nodes = slice(len(re_idx), len(re_idx) + m + 1)
                self._blocks.append(
                    (fd, k, slice(nx, nx + n_states), nodes))
                re_idx += [bus_i, *range(ny, ny + m)]
                im_idx += [bus_i + tdae.net.n_bus, *range(ny + m, ny + 2 * m)]
                nx += n_states
                ny += 2 * m
        self._re_idx, self._im_idx = np.array(re_idx), np.array(im_idx)
        self.n_x, self.n_y = nx, ny
        self._g_power = None  # the interface power at g's last point
        x, y = self.gather()
        self.scatter(x, y, self.interface_power(x, y)[0])

    def _feeder_blocks(self, x, y):
        """(feeder, interface index, node voltages, motor states) each, in
        the feeder's own form: Python complex numbers, (E', slip) pairs."""
        v = (y[self._re_idx] + 1j * y[self._im_idx]).tolist()
        x = x.tolist()
        for fd, k, xs, vs in self._blocks:
            it = iter(x[xs])
            yield fd, k, v[vs], [(complex(er, ei), s)
                                 for er, ei, s in zip(it, it, it)]

    def interface_power(self, x, y):
        """Consumed [P, Q] per interface bus, laid end to end as a list
        of floats, and every feeder's mismatch, laid end to end too."""
        s = np.zeros(self.n_if, dtype=complex)
        mismatch = []
        for fd, k, v, states in self._feeder_blocks(x, y):
            i_src, r = fd.kcl(v, states)
            s[k] += v[0] * np.conj(i_src)
            mismatch += [z.real for z in r] + [z.imag for z in r]
        u = [part for sk in s.tolist() for part in (sk.real, sk.imag)]
        return u, mismatch

    def f(self, x, y):
        tdae = self.tdae
        out = []
        for fd, _, v, states in self._feeder_blocks(x, y):
            out += fd.motor_derivatives(v, states)
        return np.concatenate([tdae.f(x[:tdae.n_x], y[:tdae.n_y]), out])

    def g(self, x, y, u):
        tdae = self.tdae
        u_t, mismatch = self.interface_power(x, y)
        self._g_power = u_t
        return np.concatenate(
            [tdae.g(x[:tdae.n_x], y[:tdae.n_y], u_t), mismatch])

    def advance(self, h: float, switched: frozenset[str]) -> None:
        cache = self.newton_cache
        if switched:
            cache.end = None
        x, y = trapezoidal_dae_step(self, *self.gather(), None, h,
                                    cache=cache)
        # a kept end point is where the Newton's last g stood
        self.scatter(x, y, self._g_power if cache.end is not None
                     else self.interface_power(x, y)[0])

    # -- the shared component objects

    def scatter(self, x, y, u) -> None:
        """Write (x, y) into the component objects, then each feeder
        sub-system's input and output: its bus voltage, and the power
        drawn, which ``u``, the interface power at (x, y), lays end to
        end."""
        tdae = self.tdae
        self.tsub.x, self.tsub.y = x[:tdae.n_x].copy(), y[:tdae.n_y].copy()
        for fd, _, v, states in self._feeder_blocks(x, y):
            fd.v = v
            for mu, st in zip(fd.motors, states):
                mu.state = st
        e = self.tsub.output()
        for k, d in enumerate(self.dsubs):
            d.set_input(e[2 * k:2 * k + 2])
            d.set_output(complex(u[2 * k], u[2 * k + 1]))

    def gather(self):
        """(x, y) read from the component objects."""
        x, y = [], []
        for fd, *_ in self._blocks:
            for e, s in (mu.state for mu in fd.motors):
                x += e.real, e.imag, s
            y += [vn.real for vn in fd.v[1:]] + [vn.imag for vn in fd.v[1:]]
        return (np.concatenate([self.tsub.x, x]),
                np.concatenate([self.tsub.y, y]))


# -- run orchestration --------------------------------------------------------


# the distribution events, and the parameter each one takes
_EVENT_PARAMS = {"connect_motor": ("name", str),
                 "disconnect_motor": ("name", str),
                 "connect_feeder": ("index", int),
                 "disconnect_feeder": ("index", int)}


def check_scenario(scenario: Scenario):
    """(The run's schedule, its network); ``ValueError`` unless it can run.

    The one owner of the rules about a whole scenario, checked as it
    stands, whatever changed since it was made: the run parameters, at
    least one feeder, a network that loads with every feeder on one of
    its buses, no motor name twice on one bus, every output channel a
    column of the record (``scenario_columns``), and each event (a
    ``D<bus>`` target with a feeder, a distribution action with exactly
    its one parameter, naming a motor on that bus or an index of its
    feeders, one that the events before it have not left as this one
    would, and a step of the run that follows it).  A message starts
    with the offending field's path in the scenario file; the network's
    own (a file that is not JSON included) with ``transmission '<path>'``.
    """
    try:
        CouplingSchedule(scenario.h_macro, scenario.t_end)
    except ValueError as exc:
        raise ValueError(f"run.{exc}") from None
    if not (math.isfinite(scenario.rk_tol) and scenario.rk_tol > 0):
        raise ValueError(f"run.rk_tol: must be finite and positive, got "
                         f"{scenario.rk_tol!r}")
    if not scenario.feeders:
        raise ValueError("feeders: no feeders; a T-D scenario needs at "
                         "least one feeder")
    try:
        net = load_network(scenario.transmission)
    except (OSError, ValueError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise ValueError(f"transmission {scenario.transmission!r}: "
                         f"{why}") from None
    names = set()
    for k, fs in enumerate(scenario.feeders):
        if fs.bus not in net.bus_ids:
            raise ValueError(f"feeders[{k}].bus: feeder bound to unknown "
                             f"bus {fs.bus}")
        for i, m in enumerate(fs.motors):
            if (fs.bus, m.name) in names:
                raise ValueError(
                    f"feeders[{k}].composition.motors[{i}].name: "
                    f"{m.name!r} is already a motor on bus {fs.bus}")
            names.add((fs.bus, m.name))
    if scenario.channels:
        columns = set(scenario_columns(scenario, net))
        unknown = [c for c in scenario.channels if c not in columns]
        if unknown:
            raise ValueError(f"outputs.channels: unknown channels {unknown}")
    for i, ev in enumerate(scenario.events):
        here = [fs for fs in scenario.feeders if f"D{fs.bus}" == ev.target]
        if not here:
            raise ValueError(f"events[{i}].target: no feeder on "
                             f"{ev.target!r}")
        if ev.action not in _EVENT_PARAMS:
            raise ValueError(f"events[{i}].action: unknown action "
                             f"{ev.action!r}")
        key, typ = _EVENT_PARAMS[ev.action]
        if set(ev.params) != {key} or type(ev.params[key]) is not typ:
            raise ValueError(f"events[{i}].params: expected exactly "
                             f"{{{key!r}: {typ.__name__}}}, got "
                             f"{dict(ev.params)!r}")
        known = ({m.name for fs in here for m in fs.motors} if key == "name"
                 else range(len(here)))
        if ev.params[key] not in known:
            raise ValueError(f"events[{i}].params.{key}: {ev.params[key]!r} "
                             f"is not one of {ev.target}'s {sorted(known)}")
    # each event switches its target, in the schedule's order (by time,
    # ties as listed) from the specs' active flags
    on = {}
    for bus in {fs.bus for fs in scenario.feeders}:
        here = [fs for fs in scenario.feeders if fs.bus == bus]
        for j, fs in enumerate(here):
            on[f"D{bus}", j] = fs.active
            on.update({(f"D{bus}", m.name): m.active for m in fs.motors})
    for i in sorted(range(len(scenario.events)),
                    key=lambda i: scenario.events[i].time):
        ev = scenario.events[i]
        (which,) = ev.params.values()
        connect = ev.action.startswith("connect")
        if on[ev.target, which] is connect:
            raise ValueError(f"events[{i}]: {ev.action} {which!r} on "
                             f"{ev.target}, which is already "
                             f"{'on' if connect else 'off'}")
        on[ev.target, which] = connect
    try:
        return CouplingSchedule(scenario.h_macro, scenario.t_end,
                                tuple(scenario.events)), net
    except ValueError as exc:
        raise ValueError(f"events: {exc}") from None


def run_scenario(scenario: Scenario) -> RunResult:
    t_start = time.perf_counter()
    schedule, net = check_scenario(scenario)
    subsystems, dsubs, interface_buses = _build(scenario, net)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface_buses)
    if scenario.method is RunMethod.MONOLITHIC:
        mono = MonolithicDae(subsystems["T"], dsubs)
        log = march(schedule, subsystems, mono.advance)
        newton = {"monolithic": mono.newton_cache.counters()}
    else:
        log = run_cosimulation(schedule, subsystems,
                               CouplingMethod(scenario.method.value))
        newton = {"T": subsystems["T"].newton_cache.counters()}
    # the verdict judges the run from its last event on
    t0 = max((ev.time for ev in schedule.events), default=0.0)
    verdict = detect_convergence(log, (t0, scenario.t_end))
    return RunResult(scenario=scenario.name, method=scenario.method,
                     h_macro=scenario.h_macro, log=log,
                     verdict=verdict, wall_time=time.perf_counter() - t_start,
                     newton=newton)

