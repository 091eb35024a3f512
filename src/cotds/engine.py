"""Scenario semantics: wiring power models into the co-simulation core.

A scenario names a transmission dataset, attaches distribution feeders to
interface buses, and selects a run method and macro step.  All three
methods march the same initialised sub-systems with ``cosim.march``, so
they log the same channels and report failures alike.  Parallel and
series hand it ``cosim.exchange_step``, with the transmission sub-system
as the hub and one distribution sub-system per interface bus as its
spokes.  Monolithic hands it one trapezoidal step of the whole system as
one DAE, with no exchange.  That DAE only stacks the blocks the
co-simulation path solves (the transmission DAE, and each feeder's motor
derivatives and KCL mismatch) and writes its state back into the same
component objects, on which events act.  Both paths thus solve one
model, and any disagreement between them is coupling error, not
modeling error.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .cosim import (CouplingMethod, CouplingSchedule, Event, TimeSeriesLog,
                    march, run_cosimulation)
from .feeder import (DistributionFeeder, DistributionSubSystem, FeederBranch,
                     MotorUnit)
from .integrators import (DaeSystem, JacobianCache, NewtonConfig,
                          trapezoidal_dae_step)
from .loads import InductionMotor, InductionMotorParams, ZipLoadParams
# bench/tracing.py patches engine.zip_power by name; engine never calls it,
# so that counter counts nothing here.  The import goes when the
# benchmark's patch list drops it.
from .loads import zip_power  # noqa: F401
from .machines import GeneratorBank
from .power_network import PowerFlowError, load_network
from .transmission import TransmissionDae, TransmissionSubSystem

__all__ = [
    "RunMethod", "MotorSpec", "FeederSpec", "Scenario", "RunResult",
    "Verdict", "check_event", "build_subsystems",
    "iterative_td_powerflow_init", "run_scenario", "detect_convergence",
    "compare_runs",
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
    active: bool = True


@dataclass(frozen=True)
class FeederSpec:
    bus: int
    branches: tuple[FeederBranch, ...]
    loads: tuple[tuple[int, float, float], ...]  # (node, p, q)
    static_fraction: float
    zip_fractions: tuple[float, float, float]  # (z, i, p)
    motors: tuple[MotorSpec, ...]
    active: bool = True

    def __post_init__(self):
        if not (0.0 <= self.static_fraction <= 1.0):
            raise ValueError("static_fraction must be in [0, 1]")
        if abs(sum(self.zip_fractions) - 1.0) > 1e-9:
            raise ValueError("zip fractions must sum to 1")
        if self.motors:
            total = sum(m.share for m in self.motors)
            if abs(total - 1.0) > 1e-9:
                raise ValueError("motor shares must sum to 1")

    @property
    def p_total(self) -> float:
        return sum(p for _, p, _ in self.loads)


@dataclass
class Scenario:
    name: str
    transmission: str
    feeders: list[FeederSpec]
    events: list[Event] = field(default_factory=list)
    method: RunMethod = RunMethod.SERIES
    h_macro: float = 0.006
    t_end: float = 10.0
    rk_tol: float = 1e-6
    channels: list[str] = field(default_factory=list)

    def __post_init__(self):
        try:
            net = load_network(self.transmission)
        except OSError as exc:
            raise ValueError(f"transmission {self.transmission!r}: "
                             f"{exc.strerror or exc}") from None
        for fs in self.feeders:
            if fs.bus not in net.bus_ids:
                raise ValueError(f"feeder bound to unknown bus {fs.bus}")


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


# the distribution events, and the parameter each one takes
_EVENT_PARAMS = {"connect_motor": ("name", str),
                 "disconnect_motor": ("name", str),
                 "connect_feeder": ("index", int),
                 "disconnect_feeder": ("index", int)}


def check_event(feeders: list[FeederSpec], ev: Event) -> None:
    """Raise ValueError unless ``ev`` is an event the scenario can apply.

    Its target must be ``D<bus>`` of a feeder bus, its action one of the
    four distribution actions, and its params exactly the one parameter
    of that action: a motor on that bus or an index of its feeders.
    """
    here = [fs for fs in feeders if f"D{fs.bus}" == ev.target]
    if not here:
        raise ValueError(f"target: no feeder on {ev.target!r}")
    if ev.action not in _EVENT_PARAMS:
        raise ValueError(f"action: unknown action {ev.action!r}")
    key, typ = _EVENT_PARAMS[ev.action]
    if set(ev.params) != {key} or type(ev.params[key]) is not typ:
        raise ValueError(f"params: expected exactly {{{key!r}: "
                         f"{typ.__name__}}}, got {dict(ev.params)!r}")
    known = ({m.name for fs in here for m in fs.motors} if key == "name"
             else range(len(here)))
    if ev.params[key] not in known:
        raise ValueError(f"params.{key}: {ev.params[key]!r} is not one of "
                         f"{ev.target}'s {sorted(known)}")


# -- construction -----------------------------------------------------------


def _build_feeder(fs: FeederSpec, omega_s: float) -> DistributionFeeder:
    motor_budget = (1.0 - fs.static_fraction) * fs.p_total
    zips = {}
    for node, p, q in fs.loads:
        zp, zi, zc = fs.zip_fractions
        zips[node] = ZipLoadParams(p0=fs.static_fraction * p,
                                   q0=fs.static_fraction * q,
                                   z_frac=zp, i_frac=zi, p_frac=zc)
    motors = []
    for ms in fs.motors:
        motor = InductionMotor(ms.machine, omega_s)
        motors.append(MotorUnit(name=ms.name, node=ms.node, motor=motor,
                                p_target=ms.share * motor_budget,
                                active=ms.active))
    return DistributionFeeder(list(fs.branches), zips, motors,
                              active=fs.active)


def build_subsystems(scenario: Scenario):
    """(sub-systems, D sub-systems, interface buses), in interface-bus order.

    The sub-systems are the hub ``T`` and its spokes, one ``D<bus>`` per
    interface bus; the second element holds the spokes alone.
    """
    net = load_network(scenario.transmission)
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
    dsubs = {f"D{bus}": DistributionSubSystem(f"D{bus}", by_bus[bus],
                                              rk_tol=scenario.rk_tol)
             for bus in interface_buses}
    subsystems = {"T": TransmissionSubSystem("T", dae), **dsubs}
    return subsystems, dsubs, interface_buses


_TD_INIT_TOL = 1e-8  # largest interface-power change at the fixed point
_TD_INIT_PASSES = 50


def iterative_td_powerflow_init(tsub: TransmissionSubSystem,
                                dsubs: dict[str, DistributionSubSystem],
                                interface_buses: list[int]) -> None:
    """Alternate transmission and feeder power flows to a fixed point.

    On return every sub-system's output is consistent with every other's
    input, and all internal states are at equilibrium.
    """
    u_t = np.zeros(2 * len(interface_buses))
    for k, bus in enumerate(interface_buses):
        d = dsubs[f"D{bus}"]
        s = sum(complex(p, q) for fd in d.feeders if fd.active
                for _, p, q in _feeder_nominal(fd))
        u_t[2 * k], u_t[2 * k + 1] = s.real, s.imag

    for _ in range(_TD_INIT_PASSES):
        tsub.initialize(u_t)
        v_if = tsub.output()
        u_new = np.empty_like(u_t)
        for k, bus in enumerate(interface_buses):
            d = dsubs[f"D{bus}"]
            d.initialize(v_if[2 * k:2 * k + 2])
            u_new[2 * k:2 * k + 2] = d.output()
        if np.max(np.abs(u_new - u_t)) <= _TD_INIT_TOL:
            tsub.initialize(u_new)
            v_if = tsub.output()
            for k, bus in enumerate(interface_buses):
                dsubs[f"D{bus}"].initialize(v_if[2 * k:2 * k + 2])
            return
        u_t = u_new
    raise PowerFlowError("T-D power flow initialisation did not converge")


def _feeder_nominal(fd: DistributionFeeder):
    out = []
    for node, zl in fd.zip_loads.items():
        out.append((node, zl.p0, zl.q0))
    for mu in fd.motors:
        if mu.active:
            # reactive guess: rated power factor ~0.9 lagging
            out.append((mu.node, mu.p_target, 0.48 * mu.p_target))
    return out


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
    """Per-channel max-abs and RMS deviation, b resampled onto a's grid."""
    if channels is None:
        channels = sorted(set(a.columns) & set(b.columns))
    if not channels:
        raise ValueError("runs share no channels")
    missing = [c for c in channels
               if c not in a.columns or c not in b.columns]
    if missing:
        raise ValueError(f"channels missing from a run: {missing}")
    ta, tb = np.asarray(a.times), np.asarray(b.times)
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
    nodes 1..N (node 0 is the interface bus).
    """

    def __init__(self, tsub: TransmissionSubSystem,
                 dsubs: dict[str, DistributionSubSystem]):
        """``dsubs`` in the order of the transmission's interface buses."""
        self.tsub = tsub
        self.tdae = tdae = tsub.dae
        self.dsubs = list(dsubs.values())
        self.n_if = len(self.dsubs)
        # per feeder: the feeder, its interface index, the slice of x
        # holding its motor states, the slice of the stacked node voltages
        # holding its nodes 0..N, and where its node voltages start in y
        self._blocks = []
        re_idx, im_idx = [], []
        nx, ny = tdae.n_x, tdae.n_y
        for k, bus in enumerate(tdae.interface_buses):
            bus_i = tdae.net.idx(bus)
            for fd in self.dsubs[k].feeders:
                m, n_states = fd.n_nodes - 1, 3 * len(fd.motors)
                nodes = slice(len(re_idx), len(re_idx) + m + 1)
                self._blocks.append(
                    (fd, k, slice(nx, nx + n_states), nodes, ny))
                re_idx += [bus_i, *range(ny, ny + m)]
                im_idx += [bus_i + tdae.net.n_bus, *range(ny + m, ny + 2 * m)]
                nx += n_states
                ny += 2 * m
        self.motors = [mu for fd, *_ in self._blocks for mu in fd.motors]
        self._re_idx, self._im_idx = np.array(re_idx), np.array(im_idx)
        self._nx, self._ny = nx, ny

    @property
    def n_x(self) -> int:
        return self._nx

    @property
    def n_y(self) -> int:
        return self._ny

    def _feeder_blocks(self, x, y):
        """(feeder, interface index, node voltages, motor states) each."""
        v = y[self._re_idx] + 1j * y[self._im_idx]
        for fd, k, xs, vs, _ in self._blocks:
            yield fd, k, v[vs], x[xs].reshape(-1, 3)

    def interface_power(self, x, y):
        """Consumed [P, Q] per interface bus, and every feeder's mismatch."""
        s = np.zeros(self.n_if, dtype=complex)
        mismatch = []
        for fd, k, v, states in self._feeder_blocks(x, y):
            i_src, r = fd.kcl(v, states)
            s[k] += v[0] * np.conj(i_src)
            mismatch += [r.real, r.imag]
        u = np.empty(2 * self.n_if)
        u[0::2], u[1::2] = s.real, s.imag
        return u, mismatch

    def f(self, x, y, u):
        tdae = self.tdae
        out = [tdae.f(x[:tdae.n_x], y[:tdae.n_y], None)]
        for fd, _, v, states in self._feeder_blocks(x, y):
            out.append(fd.motor_derivatives(v, states))
        return np.concatenate(out)

    def g(self, x, y, u):
        tdae = self.tdae
        u_t, mismatch = self.interface_power(x, y)
        return np.concatenate(
            [tdae.g(x[:tdae.n_x], y[:tdae.n_y], u_t)] + mismatch)

    # -- the shared component objects

    def scatter(self, x, y) -> None:
        """Write (x, y) into the component objects, and each feeder
        sub-system's input and output (bus voltage, power drawn)."""
        tdae = self.tdae
        self.tsub.x, self.tsub.y = x[:tdae.n_x].copy(), y[:tdae.n_y].copy()
        u, _ = self.interface_power(x, y)
        for d, e, s in zip(self.dsubs, self.tsub.output().reshape(-1, 2),
                           u.reshape(-1, 2)):
            d.set_input(e)
            d._output = s.copy()
        for fd, _, v, states in self._feeder_blocks(x, y):
            fd.v = v.copy()
            for mu, st in zip(fd.motors, states):
                mu.state = st.copy()

    def gather(self):
        """(x, y) read from the component objects.

        An inactive feeder's nodes are put at its interface bus voltage.
        """
        x = np.concatenate([self.tsub.x] + [mu.state for mu in self.motors])
        y = np.empty(self.n_y)
        y[:self.tdae.n_y] = self.tsub.y
        v_if = self.tsub.output()
        for fd, k, _, _, off in self._blocks:
            m = fd.n_nodes - 1
            v = fd.v[1:] if fd.active else complex(*v_if[2 * k:2 * k + 2])
            y[off:off + m] = np.real(v)
            y[off + m:off + 2 * m] = np.imag(v)
        return x, y


# -- run orchestration --------------------------------------------------------


def _post_event_window(scenario: Scenario) -> tuple[float, float]:
    if scenario.events:
        t0 = max(ev.time for ev in scenario.events)
    else:
        t0 = 0.0
    return (t0, scenario.t_end)


def run_scenario(scenario: Scenario) -> RunResult:
    t_start = time.perf_counter()
    if not scenario.feeders:
        raise ValueError("scenario has no feeders: a T-D run needs at "
                         "least one")
    for ev in scenario.events:
        check_event(scenario.feeders, ev)
    subsystems, dsubs, interface_buses = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface_buses)
    schedule = CouplingSchedule(scenario.h_macro, scenario.t_end,
                                tuple(scenario.events))
    if scenario.method is RunMethod.MONOLITHIC:
        log, cache = _run_monolithic(schedule, subsystems, dsubs)
        newton = {"monolithic": cache.counters()}
    else:
        log = run_cosimulation(schedule, subsystems,
                               CouplingMethod(scenario.method.value))
        newton = {"T": subsystems["T"].newton_cache.counters()}
    verdict = detect_convergence(log, _post_event_window(scenario))
    return RunResult(scenario=scenario.name, method=scenario.method,
                     h_macro=scenario.h_macro, log=log,
                     verdict=verdict, wall_time=time.perf_counter() - t_start,
                     newton=newton)


def _run_monolithic(schedule: CouplingSchedule, subsystems: dict,
                    dsubs: dict) -> tuple[TimeSeriesLog, JacobianCache]:
    """March the stacked DAE; no interface data is exchanged.

    Returns the log and the stacked DAE's Jacobian cache, which every
    event clears: an event changes which feeders the DAE holds.
    """
    mono = MonolithicDae(subsystems["T"], dsubs)
    # the first record holds the stacked model's own source power
    mono.scatter(*mono.gather())
    newton, cache = NewtonConfig(), JacobianCache()

    def step(h):
        x, y = trapezoidal_dae_step(mono, *mono.gather(), None, h, newton,
                                    cache)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise OverflowError("monolithic state is non-finite")
        mono.scatter(x, y)

    def fire(ev):
        dsubs[ev.target].switch(ev.action, ev.params)
        cache.clear()

    return march(schedule, subsystems, step, fire), cache
