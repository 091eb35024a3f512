import math

import numpy as np
import pytest

from cotds.cosim import (
    CouplingMethod,
    CouplingSchedule,
    Event,
    SubSystem,
    TimeSeriesLog,
    exchange_step,
    _EVENT_SNAP,
    interface_mismatch,
    march,
    run_cosimulation,
)
from cotds.linlab import (
    LinearCoupledParams,
    StateVec2,
    make_linear_pair,
)
from cotds.scenario_io import read_csv, write_csv

P1 = LinearCoupledParams(-1.0, -10.0, 2.0, 2.0)
P2 = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)


class Recorder(SubSystem):
    """Integrates nothing; records the inputs it was advanced with."""

    def __init__(self, out_value=0.0, n_in=1):
        self.out_value = np.atleast_1d(np.asarray(out_value, dtype=float))
        self.current_input = np.zeros(n_in)
        self.seen = []

    def set_input(self, u):
        self.current_input = np.asarray(u, dtype=float).copy()

    def advance(self, h):
        self.seen.append(self.current_input.copy())

    def output(self):
        return self.out_value.copy()

    def switch(self, action, params):
        if action == "set_output":
            self.out_value = np.atleast_1d(np.asarray(params["value"], float))
        else:
            super().switch(action, params)


class Hub(Recorder):
    """A recorder whose every output grows by 10 in each step."""

    def advance(self, h):
        super().advance(h)
        self.out_value = self.out_value + 10.0


class TestAgainstLinlabSteppers:
    def test_t_end_zero_single_record(self):
        log = run_cosimulation(CouplingSchedule(0.1, 0.0),
                               make_linear_pair(P1, StateVec2(1, 1)),
                               CouplingMethod.SERIES)
        assert len(log.times) == 1 and log.times[0] == 0.0

    def test_divergence_truncates_with_flag(self):
        subsystems = make_linear_pair(P2, StateVec2(1, 1), n_micro=100)
        log = run_cosimulation(CouplingSchedule(5.0, 2e4), subsystems,
                               CouplingMethod.PARALLEL)
        assert log.diverged
        assert log.failure.startswith("divergence at t=")
        assert log.failure.endswith("non-finite record")
        assert len(log.times) < 4001
        # the flagged record is not kept
        assert np.all(np.isfinite(log.as_array()))


class TestArrayOutputs:
    """The exchange takes any float sequence: a spoke whose output is
    an array feeds a hub whose interface vectors are float lists."""

    @pytest.mark.parametrize("method", list(CouplingMethod))
    def test_spoke_returning_an_array(self, method):
        hub = make_linear_pair(P1, StateVec2(1.0, 1.0))["A"]
        spoke = Recorder(out_value=0.25)
        y_start = hub.output()
        exchange_step({"A": hub, "B": spoke}, method)(0.1, False)
        assert isinstance(spoke.output(), np.ndarray)
        assert type(hub.current_input) is list
        assert hub.current_input == [0.25]
        assert type(hub.current_input[0]) is float
        want = y_start if method is CouplingMethod.PARALLEL else hub.output()
        assert [u.tolist() for u in spoke.seen] == [want]


class Channel(Recorder):
    """A recorder whose snapshot channel reads ``values[k]`` after k
    steps; its output stays finite."""

    def __init__(self, values):
        super().__init__()
        self.values = values

    def snapshot(self):
        return {"v": self.values[len(self.seen)]}


class TestRecordFiniteness:
    def run(self, values):
        return run_cosimulation(CouplingSchedule(1.0, 4.0),
                                {"A": Channel(values), "B": Recorder()},
                                CouplingMethod.SERIES)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_channel_truncates(self, bad):
        log = self.run([0.0, 1.0, 2.0, bad, 3.0])
        assert log.diverged
        assert log.failure == "divergence at t=3: non-finite record"
        assert log.times == [0.0, 1.0, 2.0]
        assert log.channel("A.v").tolist() == [0.0, 1.0, 2.0]
        assert all(isinstance(r, np.ndarray) and r.dtype == float
                   for r in log.rows)

    def test_large_finite_channel_is_kept(self):
        log = self.run([0.0, 1e308, -1e308, 1e308, 2.0])
        assert not log.diverged and log.failure is None
        assert log.channel("A.v").tolist() == [0.0, 1e308, -1e308, 1e308,
                                               2.0]


class TestTimeSeriesLog:
    def check_channels(self, log):
        arr = log.as_array()
        for j, c in enumerate(log.columns):
            assert np.array_equal(log.channel(c), arr[:, j])

    def marched_log(self):
        return run_cosimulation(CouplingSchedule(0.1, 1.0),
                                make_linear_pair(P1, StateVec2(1, 1)),
                                CouplingMethod.SERIES)

    def test_marched_log(self):
        self.check_channels(self.marched_log())

    def test_read_csv_log(self, tmp_path):
        path = str(tmp_path / "run.csv")
        write_csv(path, self.marched_log())
        log = read_csv(path)
        assert isinstance(log.rows[0], list)
        self.check_channels(log)

    def test_empty_log(self):
        log = TimeSeriesLog(columns=["a", "b"])
        assert log.channel("b").shape == (0,)
        self.check_channels(log)


class TestExchangeSemantics:
    def test_parallel_uses_start_of_step_outputs(self):
        a = Recorder(out_value=1.0)
        b = Recorder(out_value=10.0)
        a.current_input = np.array([10.0])
        b.current_input = np.array([1.0])
        sched = CouplingSchedule(1.0, 2.0, events=[
            Event(1.0, "A", "set_output", {"value": 5.0})])
        run_cosimulation(sched, {"A": a, "B": b}, CouplingMethod.PARALLEL)
        # step at t in [1,2): A's output changed to 5 at the boundary, B sees it
        assert b.seen[0][0] == 1.0
        assert b.seen[1][0] == 5.0

    def test_series_sink_sees_fresh_source_output(self):
        class Counter(SubSystem):
            def __init__(self):
                self.x = 0.0
                self.current_input = np.zeros(1)

            def set_input(self, u):
                self.current_input = np.asarray(u, float).copy()

            def advance(self, h):
                self.x += 1.0

            def output(self):
                return np.array([self.x])

        src = Counter()
        sink = Recorder(out_value=0.0)
        run_cosimulation(CouplingSchedule(1.0, 3.0),
                         {"SRC": src, "SINK": sink}, CouplingMethod.SERIES)
        # sink's step-i input equals source's step-(i+1) output
        assert [u[0] for u in sink.seen] == [1.0, 2.0, 3.0]

    def test_determinism(self):
        logs = []
        for _ in range(2):
            sched = CouplingSchedule(0.25, 5.0,
                                     events=[Event(2.0, "B", "noop_unknown")])
            with pytest.raises(ValueError, match="does not handle event"):
                run_cosimulation(sched, make_linear_pair(P2, StateVec2(1, 1)),
                                 CouplingMethod.SERIES)
            logs.append(run_cosimulation(
                CouplingSchedule(0.25, 5.0),
                make_linear_pair(P2, StateVec2(1, 1)),
                CouplingMethod.SERIES).as_array())
        assert np.array_equal(logs[0], logs[1])

    @pytest.mark.parametrize("method,shift", [
        (CouplingMethod.PARALLEL, 0.0), (CouplingMethod.SERIES, 10.0)])
    def test_hub_output_sliced_to_spokes(self, method, shift):
        hub = Hub(out_value=[1.0, 2.0, 3.0], n_in=3)
        hub.current_input = np.array([4.0, 5.0, 6.0])
        s1 = Recorder(out_value=[4.0, 5.0])
        s1.current_input = np.array([1.0])
        s2 = Recorder(out_value=6.0, n_in=2)
        s2.current_input = np.array([2.0, 3.0])
        run_cosimulation(CouplingSchedule(1.0, 2.0),
                         {"H": hub, "S1": s1, "S2": s2}, method)
        # each spoke's slice is as long as its input, whatever its output;
        # series hands the spokes the hub's output after its step
        assert [list(u) for u in s1.seen] == [[1.0 + shift], [11.0 + shift]]
        assert [list(u) for u in s2.seen] == [[2.0 + shift, 3.0 + shift],
                                              [12.0 + shift, 13.0 + shift]]
        assert [list(u) for u in hub.seen] == [[4.0, 5.0, 6.0]] * 2


class TestInitialConsistency:
    def test_steady_pair_consistent(self):
        gaps = interface_mismatch(make_linear_pair(P1, StateVec2(0.3, 0.9)))
        assert list(gaps) == ["B"]
        assert gaps["B"] <= 1e-9

    def test_perturbed_input_flagged(self):
        subsystems = make_linear_pair(P1, StateVec2(0.3, 0.9))
        subsystems["B"].set_input(np.add(subsystems["B"].current_input, 0.1))
        gaps = interface_mismatch(subsystems)
        assert list(gaps) == ["B"]
        assert gaps["B"] == pytest.approx(0.1, abs=1e-12)

    def test_run_refuses_inconsistent_start(self):
        # a nan gap is refused as a large one
        for shift in (0.5, math.nan):
            subsystems = make_linear_pair(P1, StateVec2(0.3, 0.9))
            subsystems["B"].set_input(np.add(subsystems["B"].current_input,
                                             shift))
            with pytest.raises(ValueError,
                               match="inconsistent initialization"):
                run_cosimulation(CouplingSchedule(0.1, 1.0), subsystems,
                                 CouplingMethod.PARALLEL)

    @pytest.mark.parametrize("method", list(CouplingMethod))
    def test_non_finite_first_record_is_divergence(self, method):
        # k * x0 overflows: B takes A's infinite output as its input, so
        # the interface has no gap, but the t = 0 record is not finite
        subsystems = make_linear_pair(P1, StateVec2(1e308, 1.0))
        assert interface_mismatch(subsystems) == {"B": 0.0}
        log = run_cosimulation(CouplingSchedule(0.1, 1.0), subsystems, method)
        assert log.diverged
        assert log.failure == "divergence at t=0: non-finite record"
        assert log.times == [] and log.as_array().shape == (0, 4)

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            CouplingSchedule(0.1, 1.0, events=[Event(2.0, "A", "x")])


class TestSchedule:
    @pytest.mark.parametrize("h, t_end, field", [
        (0.0, 1.0, "h_macro"), (-0.1, 1.0, "h_macro"),
        (math.inf, 1.0, "h_macro"), (math.nan, 1.0, "h_macro"),
        (0.1, -1.0, "t_end"), (0.1, math.inf, "t_end"),
        (0.1, math.nan, "t_end")])
    def test_rejects_non_finite_or_non_positive(self, h, t_end, field):
        with pytest.raises(ValueError, match=rf"^{field}: must be finite"):
            CouplingSchedule(h, t_end)

    @pytest.mark.parametrize("h, t_end, n", [
        (0.5, 1.2, 2), (0.5, 1.3, 3), (0.1, 1.0, 10), (0.006, 5.0, 833),
        (0.1, 0.0, 0), (0.1, 0.04, 0)])
    def test_n_steps_is_the_marched_step_count(self, h, t_end, n):
        sched = CouplingSchedule(h, t_end)
        assert sched.n_steps == n
        log = run_cosimulation(sched, make_linear_pair(P1, StateVec2(1, 1)),
                               CouplingMethod.SERIES)
        assert len(log.times) == n + 1

    def test_step_count_is_bounded(self):
        # the bound itself is taken, one step more is refused
        assert CouplingSchedule(1.0, 1e6).n_steps == 10 ** 6
        with pytest.raises(ValueError, match=r"^h_macro: 1\.0 is too small "
                           r"for t_end 1000001\.0: more than 1000000 steps"):
            CouplingSchedule(1.0, 1e6 + 1)

    @pytest.mark.parametrize("time", [1.0, 1.2, -0.1])
    def test_event_no_step_follows_rejected(self, time):
        # t_end 1.2 at H 0.5 takes steps from 0 and 0.5 and ends at 1.0
        with pytest.raises(ValueError, match=r"outside \[0, 0\.5\]"):
            CouplingSchedule(0.5, 1.2, events=[Event(time, "A", "x")])

    def test_event_at_last_step_start_applied(self):
        a = Recorder(out_value=1.0)
        b = Recorder(out_value=10.0)
        a.current_input = np.array([10.0])
        b.current_input = np.array([1.0])
        sched = CouplingSchedule(0.5, 1.2, events=[
            Event(0.5, "A", "set_output", {"value": 5.0})])
        assert sched.applies(sched.events[0])
        log = run_cosimulation(sched, {"A": a, "B": b},
                               CouplingMethod.PARALLEL)
        assert log.times == [0.0, 0.5, 1.0]
        assert [u[0] for u in b.seen] == [1.0, 5.0]

    def test_applies_snaps_to_the_boundary(self):
        sched = CouplingSchedule(0.1, 1.0)
        last = (sched.n_steps - 1) * sched.h_macro
        assert sched.applies(Event(last + 1e-13, "A", "x"))
        assert not sched.applies(Event(last + 1e-9, "A", "x"))
        assert sched.applies(Event(0.0, "A", "x"))
        assert not sched.applies(Event(-1e-9, "A", "x"))


def old_event_loop(schedule, subsystems, step):
    """``march``'s event loop before the schedule placed the events,
    verbatim, with the records and failures left out: the placement's
    oracle.  ``step(h)`` is called once per macro step."""
    events = sorted(schedule.events, key=lambda e: e.time)
    next_event = 0
    h, n = schedule.h_macro, schedule.n_steps
    t = 0.0
    for i in range(n + 1):
        if i == n:
            break
        while (next_event < len(events)
               and events[next_event].time <= t + _EVENT_SNAP):
            ev = events[next_event]
            subsystems[ev.target].switch(ev.action, ev.params)
            next_event += 1
        step(h)
        t = (i + 1) * h


class Switchboard(SubSystem):
    """Takes any event; records each one with the number of steps taken
    before it, and each step's ``switched``."""

    def __init__(self):
        self.steps, self.switched = 0, []

    def output(self):
        return [0.0]

    def switch(self, action, params):
        self.switched.append((self.steps, params["id"]))

    def step(self, h, switched=None):
        self.steps += 1
        self.switched.append(switched)


def event_draw(rng):
    """(H, t_end, event times) for one draw.  The times cover each way an
    event can sit against the macro boundaries k·H: on one, 1e-13 before
    one, up to 1e-12 after one, between two, several on one and on the
    last step's start, in no order."""
    h = float(rng.choice([0.006, 0.037, 0.1, 0.5, 1.0 / 3.0])
              * rng.uniform(0.5, 2.0))
    t_end = h * float(rng.integers(2, 400)) + float(rng.uniform(-0.4, 0.4)) * h
    n = int(round(t_end / h))
    k = lambda: int(rng.integers(0, max(n - 1, 1)))
    times = [k() * h, k() * h - 1e-13, k() * h + float(rng.uniform(0, 1e-12)),
             k() * h + 1e-12, (k() + float(rng.uniform())) * h,
             (n - 1) * h, (n - 1) * h + 1e-12]
    times += [times[int(rng.integers(len(times)))]] * 2
    k0 = k() + 1  # three more on one boundary, two of them before it
    times += [(k0 - 0.3) * h, k0 * h - 1e-13, k0 * h]
    rng.shuffle(times)
    return h, t_end, times


class TestEventPlacement:
    """The schedule places each event where the old march applied it."""

    @pytest.mark.parametrize("seed", range(20))
    def test_placement_matches_the_old_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            h, t_end, times = event_draw(rng)
            last = (CouplingSchedule(h, t_end).n_steps - 1) * h
            times = [t for t in times if 0 <= t <= last + 1e-12]
            events = [Event(t, "A", "x", {"id": j})
                      for j, t in enumerate(times)]
            sched = CouplingSchedule(h, t_end, events)
            old = Switchboard()
            old_event_loop(sched, {"A": old}, old.step)
            placed = [(k, ev.params["id"])
                      for k, evs in sorted(sched.switches.items())
                      for ev in evs]
            assert placed == [e for e in old.switched if e is not None]
            new = Switchboard()
            march(sched, {"A": new}, new.step)
            # the events first, then the step, told it whether there were
            # any: the old loop's order
            assert [e for e in new.switched if type(e) is tuple] == placed
            assert [e for e in new.switched if type(e) is bool] == [
                k in sched.switches for k in range(sched.n_steps)]
            for ev in events:
                assert sched.applies(ev)
                assert sched.boundary(ev) == next(
                    k for k, j in placed if j == ev.params["id"])

    @pytest.mark.parametrize("seed", range(5))
    def test_out_of_range_refused_as_before(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            h, t_end, _ = event_draw(rng)
            sched = CouplingSchedule(h, t_end)
            last = (sched.n_steps - 1) * h
            for t in (last + 2e-12, last + 0.5 * h, -1e-13, -h):
                ev = Event(t, "A", "x", {"id": 0})
                old_applies = 0 <= ev.time <= last + _EVENT_SNAP
                assert sched.applies(ev) is old_applies is False
                assert sched.boundary(ev) is None
                with pytest.raises(ValueError) as refused:
                    CouplingSchedule(h, t_end, [ev])
                assert str(refused.value) == (
                    f"event at t={t} outside [0, {last:.6g}], the last "
                    f"step's start")
