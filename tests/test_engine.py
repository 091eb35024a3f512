import dataclasses
import json
import math

import numpy as np
import pytest

from cotds import engine, feeder, transmission
from cotds.cosim import (CouplingMethod, CouplingSchedule, Event,
                         TimeSeriesLog, march, run_cosimulation)
from cotds.engine import (
    RunMethod,
    Scenario,
    Verdict,
    compare_runs,
    detect_convergence,
    run_scenario,
)
from cotds.feeder import FeederBranch, FeederError
from cotds.integrators import NewtonError, trapezoidal_dae_step
from cotds.linlab import LinearCoupledParams, StateVec2, make_linear_pair
from cotds.scenario_io import (SchemaError, fixture_path, load_scenario,
                               parse_scenario)


def make_log(values, diverged=False, columns=("x",)):
    log = TimeSeriesLog(columns=list(columns))
    values = np.atleast_2d(np.asarray(values, dtype=float).T).T
    for k, row in enumerate(values):
        log.append(0.01 * k, row)
    log.diverged = diverged
    return log


def ringing(envelope, period, phase):
    k = np.arange(envelope.size)
    return 1.0 + 0.05 * envelope * np.cos(2 * np.pi * k / period + phase)


def motor_start_shape():
    """Shape of testcase1's D6 active power after the motor start.

    Ringing with swings of about 0.012, 0.012, 0.012 and 0.007, a slow
    rise while the motor accelerates, a 0.02 drop as it reaches speed,
    then flat: one overshoot, not an oscillation.
    """
    ring = [0.8856, 0.8978, 0.8854, 0.8971, 0.8899]
    rise = np.linspace(0.8899, 0.9168, 132)[1:]
    drop = 0.8972 + 0.0196 * 0.5 * (1 + np.cos(np.linspace(0, np.pi, 36)))
    flat = np.full(496, 0.8972)
    return np.concatenate([ring, rise, drop[1:], flat])


class TestDetector:
    def test_constant_signal_converged(self):
        log = make_log(np.ones(50))
        assert detect_convergence(log) is Verdict.CONVERGED

    def test_decaying_transient_converged(self):
        t = np.linspace(0, 1, 200)
        x = 1.0 + 0.2 * np.exp(-5 * t) * np.cos(60 * t)
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    def test_growing_alternation_oscillatory(self):
        x = 1.0 + 1e-3 * (-1.0) ** np.arange(100) * np.exp(
            0.05 * np.arange(100))
        assert detect_convergence(make_log(x)) is Verdict.OSCILLATORY

    def test_sustained_alternation_oscillatory(self):
        x = 1.0 + 0.05 * (-1.0) ** np.arange(100)
        assert detect_convergence(make_log(x)) is Verdict.OSCILLATORY

    def test_decaying_alternation_converged(self):
        x = 1.0 + 0.5 * (-1.0) ** np.arange(100) * np.exp(
            -0.1 * np.arange(100))
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    def test_truncated_run_diverged(self):
        log = make_log(np.ones(10), diverged=True)
        assert detect_convergence(log) is Verdict.DIVERGED

    def test_nonfinite_sample_diverged(self):
        x = np.ones(20)
        x[-1] = np.nan
        assert detect_convergence(make_log(x)) is Verdict.DIVERGED

    def test_window_excludes_event_transient(self):
        # ringing before the window plus a flat tail must converge
        x = np.concatenate([1 + 0.3 * (-1.0) ** np.arange(50), np.ones(50)])
        log = make_log(x)
        assert detect_convergence(log, window=(0.5, 1.0)) is Verdict.CONVERGED

    def test_any_channel_can_trip(self):
        quiet = np.ones(100)
        noisy = 1.0 + 0.05 * (-1.0) ** np.arange(100)
        log = TimeSeriesLog(columns=["a", "b"])
        for k, (p, q) in enumerate(zip(quiet, noisy)):
            log.append(0.01 * k, np.array([p, q]))
        assert detect_convergence(log) is Verdict.OSCILLATORY

    def test_float_jitter_ignored(self):
        rng = np.random.default_rng(3)
        x = 1.0 + 1e-12 * rng.standard_normal(100)
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    @pytest.mark.parametrize("period", range(3, 9))
    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0])
    def test_growing_oscillatory(self, period, phase):
        env = np.exp(0.02 * np.arange(100))
        x = ringing(env, period, phase)
        assert detect_convergence(make_log(x)) is Verdict.OSCILLATORY

    @pytest.mark.parametrize("period", range(3, 9))
    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0])
    def test_sustained_oscillatory(self, period, phase):
        x = ringing(np.ones(100), period, phase)
        assert detect_convergence(make_log(x)) is Verdict.OSCILLATORY

    @pytest.mark.parametrize("period", range(3, 9))
    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0])
    def test_decaying_converged(self, period, phase):
        env = np.exp(-0.03 * np.arange(100))
        x = ringing(env, period, phase)
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    def test_monotone_drift_converged(self):
        k = np.arange(100)
        assert detect_convergence(make_log(1.0 + 1e-3 * k)) is Verdict.CONVERGED
        x = 1.0 - 0.2 * np.exp(-0.05 * k)
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    def test_motor_start_converged(self):
        x = motor_start_shape()
        assert detect_convergence(make_log(x)) is Verdict.CONVERGED

    def test_subsystem_failure_mid_run_not_converged(self, monkeypatch):
        p = LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)
        subsystems = make_linear_pair(p, StateVec2(1.0, 1.0))
        a = subsystems["A"]
        advance = a.advance
        calls = []

        def failing_advance(h):
            calls.append(h)
            if len(calls) > 20:
                raise NewtonError("Newton did not converge", 1.0)
            advance(h)

        monkeypatch.setattr(a, "advance", failing_advance)
        log = run_cosimulation(CouplingSchedule(0.1, 10.0), subsystems,
                               CouplingMethod.SERIES)
        # the step to t = 2.1 s of 10 s fails; no divergence flag is set
        assert log.failure is not None and not log.diverged
        assert len(log.times) == 21
        assert detect_convergence(log) is Verdict.DIVERGED


class TestCompareRuns:
    def test_identical_runs_zero_deviation(self):
        a = make_log(np.sin(np.arange(40)))
        rep = compare_runs(a, a)
        assert rep.worst == 0.0

    def test_known_offset(self):
        a = make_log(np.ones(40))
        b = make_log(np.ones(40) + 0.25)
        rep = compare_runs(a, b)
        assert rep.worst == pytest.approx(0.25)
        assert rep.rms["x"] == pytest.approx(0.25)

    def test_resampling_different_grids(self):
        ta = np.arange(0, 41)
        a = make_log(0.5 * ta)
        b = TimeSeriesLog(columns=["x"])
        for t in np.linspace(0.0, 0.39, 14):
            b.append(t, np.array([0.5 * (t / 0.01)]))
        rep = compare_runs(a, b)
        assert rep.worst < 20.0  # linear signal resamples almost exactly

    def test_disjoint_channels_raise(self):
        a = make_log(np.ones(10), columns=["x"])
        b = make_log(np.ones(10), columns=["y"])
        with pytest.raises(ValueError):
            compare_runs(a, b)


def quick_scenario(method=RunMethod.SERIES, h=0.01, t_end=0.5, events=False,
                   fixture="testcase1"):
    s = load_scenario(fixture_path(fixture))
    s.method = method
    s.h_macro = h
    s.t_end = t_end
    if events:
        s.events = [Event(0.1, "D6", "connect_motor", {"name": "bus6_im2"})]
    else:
        s.events = []
    return s


def counted_network_reads(monkeypatch) -> list[str]:
    """Count ``engine.load_network`` calls: the returned list grows by
    the name read at each."""
    reads = []
    load = engine.load_network

    def counted(name):
        reads.append(name)
        return load(name)

    monkeypatch.setattr(engine, "load_network", counted)
    return reads


@pytest.mark.parametrize("method", list(RunMethod))
def test_run_reads_the_network_once(monkeypatch, method):
    # the run builds on the network its own check loaded
    s = quick_scenario(method=method, t_end=0.15, events=True)
    reads = counted_network_reads(monkeypatch)
    assert run_scenario(s).log.failure is None
    assert reads == [s.transmission]


def fail_sweeps_after_switch(monkeypatch):
    """Make every feeder sweep raise ``FeederError`` from the first switch
    on; a connect_motor switch itself sweeps nothing."""
    switch = feeder.DistributionSubSystem.switch
    sweep = feeder.DistributionFeeder.sweep
    switched = []

    def recorded_switch(self, action, params):
        switched.append(action)
        switch(self, action, params)

    def failing_sweep(self, v_sub):
        if switched:
            raise FeederError("sweep refused after the switch")
        return sweep(self, v_sub)

    monkeypatch.setattr(feeder.DistributionSubSystem, "switch",
                        recorded_switch)
    monkeypatch.setattr(feeder.DistributionFeeder, "sweep", failing_sweep)


def with_mva_scale(s, motor, mva_scale):
    """``s`` with one motor rescaled; a small scale makes its load infeasible."""
    def rescale(ms):
        if ms.name != motor:
            return ms
        return dataclasses.replace(ms, machine=dataclasses.replace(
            ms.machine, mva_scale=mva_scale))

    s.feeders = [dataclasses.replace(fs, motors=tuple(map(rescale, fs.motors)))
                 for fs in s.feeders]
    return s


class TestLoadsAtOneNode:
    """Loads listed at one node draw together: the static part is the
    static fraction of their summed p and q, as the motor budget counts
    them."""

    @staticmethod
    def bus5_with_loads(loads):
        s = quick_scenario(t_end=0.2)
        s.feeders[0] = dataclasses.replace(s.feeders[0], loads=loads)
        return s

    def test_second_load_adds_to_the_first(self):
        # testcase1's bus-5 load (1.25, 0.5) and a second (0.5, 0.2) at
        # its node once drew only the second's static 0.35
        s = self.bus5_with_loads(((1, 1.25, 0.5), (1, 0.5, 0.2)))
        _, dsubs, _ = engine.build_subsystems(s)
        zl = dsubs["D5"].feeders[0].zip_loads[1]
        assert zl.p0 == 0.7 * (1.25 + 0.5)
        assert zl.q0 == 0.7 * (0.5 + 0.2)

    @pytest.mark.parametrize("method", list(RunMethod))
    def test_split_load_runs_as_one(self, method):
        split = self.bus5_with_loads(((1, 0.75, 0.3), (1, 0.5, 0.2)))
        whole = self.bus5_with_loads(((1, 0.75 + 0.5, 0.3 + 0.2),))
        built = [engine.build_subsystems(s)[1]["D5"].feeders[0]
                 for s in (split, whole)]
        assert built[0].zip_loads == built[1].zip_loads
        logs = [run_scenario(dataclasses.replace(s, method=method)).log
                for s in (split, whole)]
        assert logs[0].columns == logs[1].columns
        assert logs[0].times == logs[1].times
        assert np.array_equal(logs[0].as_array(), logs[1].as_array())


class TestRunScenario:
    def test_equilibrium_all_methods_agree(self):
        # testcase2 starts with a feeder switched off
        for fixture in ("testcase1", "testcase2"):
            logs = {}
            for m in RunMethod:
                r = run_scenario(quick_scenario(method=m, fixture=fixture))
                assert r.verdict is Verdict.CONVERGED
                logs[m] = r.log
            # every method logs the same channels, and all are compared
            for m in (RunMethod.MONOLITHIC, RunMethod.PARALLEL):
                assert logs[m].columns == logs[RunMethod.SERIES].columns
                rep = compare_runs(logs[RunMethod.SERIES], logs[m])
                assert rep.worst < 1e-7, (fixture, m)

    def test_equilibrium_is_flat(self):
        r = run_scenario(quick_scenario())
        v = r.log.channel("T.bus6.vmag")
        assert np.max(np.abs(v - v[0])) < 1e-9

    def test_event_dips_voltage_all_methods(self):
        for m in (RunMethod.SERIES, RunMethod.MONOLITHIC):
            r = run_scenario(quick_scenario(method=m, events=True))
            v = r.log.channel("T.bus6.vmag")
            t = np.asarray(r.log.times)
            assert v[t < 0.1][-1] - v.min() > 0.005

    def test_event_timing_matches_monolithic(self):
        rs = run_scenario(quick_scenario(method=RunMethod.SERIES,
                                         h=0.005, events=True))
        rm = run_scenario(quick_scenario(method=RunMethod.MONOLITHIC,
                                         h=0.005, events=True))
        vs = rs.log.channel("T.bus6.vmag")
        vm = rm.log.channel("T.bus6.vmag")
        # the dip must start on the same macro step in both logs
        ks = np.argmax(np.abs(np.diff(vs)) > 1e-3)
        km = np.argmax(np.abs(np.diff(vm)) > 1e-3)
        assert ks == km

    @pytest.mark.parametrize("events", [
        [Event(1.0, "D2", "disconnect_motor", {"name": "f1_im"})],
        [Event(1.0, "D2", "connect_feeder", {"index": 1}),
         Event(1.5, "D2", "disconnect_feeder", {"index": 0})],
    ], ids=["disconnect_motor", "connect_then_disconnect_feeder"])
    def test_events_match_monolithic(self, events):
        runs = {}
        for m in (RunMethod.SERIES, RunMethod.MONOLITHIC):
            s = load_scenario(fixture_path("testcase2"))
            s.method, s.t_end, s.events = m, 2.0, events
            r = run_scenario(s)
            assert r.log.failure is None
            assert r.verdict is Verdict.CONVERGED
            runs[m] = r
        rep = compare_runs(runs[RunMethod.SERIES].log,
                           runs[RunMethod.MONOLITHIC].log, ["T.bus2.vmag"])
        # criterion 8's bound on the coupling error
        assert rep.worst < 0.01

    @pytest.mark.parametrize("fixture", ["testcase1", "testcase2"])
    def test_failure_mid_run_same_under_all_methods(self, fixture,
                                                    monkeypatch):
        # every method takes one trapezoidal step per macro step; the
        # fifth one, from t = 0.04 s to 0.05 s, fails
        calls = []

        def failing_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise NewtonError("Newton did not converge", 1.0)
            return trapezoidal_dae_step(*args, **kwargs)

        monkeypatch.setattr(transmission, "trapezoidal_dae_step",
                            failing_step)
        monkeypatch.setattr(engine, "trapezoidal_dae_step", failing_step)
        logs = {}
        for m in RunMethod:
            calls.clear()
            r = run_scenario(quick_scenario(method=m, fixture=fixture))
            assert len(r.log.times) == 5, m
            assert r.log.failure.startswith(
                "sub-system failure at t=0.05: Newton did not converge"), m
            assert not r.log.diverged
            assert r.verdict is Verdict.DIVERGED
            logs[m] = r.log
        assert (logs[RunMethod.SERIES].columns
                == logs[RunMethod.PARALLEL].columns
                == logs[RunMethod.MONOLITHIC].columns)

    @pytest.mark.parametrize("method", list(RunMethod))
    def test_failed_event_truncates(self, method):
        # bus6_im2 connects at t = 0.02 s to a load it cannot carry; the
        # records made before the event are kept
        s = with_mva_scale(quick_scenario(method=method, t_end=0.05),
                           "bus6_im2", 1e-4)
        s.events = [Event(0.02, "D6", "connect_motor", {"name": "bus6_im2"})]
        r = run_scenario(s)
        assert r.log.times == pytest.approx([0.0, 0.01, 0.02])
        assert r.log.failure.startswith(
            "sub-system failure at t=0.02: motor bus6_im2: "), r.log.failure
        assert not r.log.diverged
        assert r.verdict is Verdict.DIVERGED

    @pytest.mark.parametrize("method", [RunMethod.SERIES,
                                        RunMethod.PARALLEL])
    def test_failed_resolve_after_event_fails_at_next_step(self, method,
                                                           monkeypatch):
        # the switch leaves the feeders' output to be re-solved at the next
        # exchange, inside the step after the boundary
        fail_sweeps_after_switch(monkeypatch)
        s = quick_scenario(method=method, t_end=0.05)
        s.events = [Event(0.02, "D6", "connect_motor", {"name": "bus6_im2"})]
        r = run_scenario(s)
        assert r.log.times == pytest.approx([0.0, 0.01, 0.02])
        assert r.log.failure == ("sub-system failure at t=0.03: "
                                 "sweep refused after the switch")
        assert not r.log.diverged
        assert r.verdict is Verdict.DIVERGED

    def test_monolithic_does_not_resolve_after_event(self, monkeypatch):
        # the stacked step solves the feeders itself, and its scatter
        # writes the feeders' output before anything reads it
        fail_sweeps_after_switch(monkeypatch)
        s = quick_scenario(method=RunMethod.MONOLITHIC, t_end=0.05)
        s.events = [Event(0.02, "D6", "connect_motor", {"name": "bus6_im2"})]
        r = run_scenario(s)
        assert r.log.failure is None
        assert len(r.log.times) == 6

    def test_infeasible_motor_fails_at_start(self):
        s = with_mva_scale(quick_scenario(), "bus5_im1", 0.01)
        with pytest.raises(FeederError, match="motor bus5_im1: .* p_target"):
            run_scenario(s)

    @pytest.mark.parametrize("method", list(RunMethod))
    def test_programming_error_propagates(self, method, monkeypatch):
        # a TypeError is a bug, not a numeric failure: it must not be
        # logged as a truncated run
        calls = []

        def buggy_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise TypeError("bug")
            return trapezoidal_dae_step(*args, **kwargs)

        monkeypatch.setattr(transmission, "trapezoidal_dae_step", buggy_step)
        monkeypatch.setattr(engine, "trapezoidal_dae_step", buggy_step)
        with pytest.raises(TypeError, match="^bug$"):
            run_scenario(quick_scenario(method=method, t_end=0.1))

    @pytest.mark.parametrize("method", [RunMethod.SERIES,
                                        RunMethod.MONOLITHIC])
    def test_bad_event_rejected_before_building(self, method, monkeypatch):
        def build(scenario, net):
            raise AssertionError("built before the events were checked")

        monkeypatch.setattr(engine, "_build", build)
        s = quick_scenario(method=method, fixture="testcase2")
        s.events = [Event(0.02, "D9", "connect_feeder", {"index": 1})]
        with pytest.raises(ValueError, match="no feeder on 'D9'"):
            run_scenario(s)

    @pytest.mark.parametrize("fixture", ["testcase1", "testcase2"])
    @pytest.mark.parametrize("method", list(RunMethod))
    def test_scenario_columns_are_the_record_columns(self, fixture, method):
        # the names check_scenario asks for, without building anything,
        # are those march makes of the built sub-systems
        s = quick_scenario(method=method, t_end=0.02, fixture=fixture)
        net = engine.load_network(s.transmission)
        assert (engine.scenario_columns(s, net)
                == run_scenario(s).log.columns)

    @pytest.mark.parametrize("method", [RunMethod.SERIES,
                                        RunMethod.MONOLITHIC])
    def test_event_no_step_follows_rejected_before_building(self, method,
                                                            monkeypatch):
        # t_end 1.2 at H 0.5 steps from 0 and 0.5 only, so testcase2's
        # connect_feeder at 1.0 would never be applied
        def build(scenario, net):
            raise AssertionError("built a run whose event never applies")

        monkeypatch.setattr(engine, "_build", build)
        s = quick_scenario(method=method, h=0.5, t_end=1.2,
                           fixture="testcase2")
        s.events = load_scenario(fixture_path("testcase2")).events
        with pytest.raises(ValueError, match="event at t=1.0 outside"):
            run_scenario(s)

    @pytest.mark.parametrize("method", list(RunMethod))
    def test_switched_off_feeder_floats_at_its_input(self, method):
        # feeder 1 of D2 connects at 1.0 s and feeder 0 disconnects at
        # 1.5 s; from then on every node of feeder 0 reads the voltage D2
        # took, which is T's output of the same record under series and
        # monolithic, and of the record before under parallel
        s = load_scenario(fixture_path("testcase2"))
        s.method, s.t_end = method, 2.0
        s.events = [Event(1.0, "D2", "connect_feeder", {"index": 1}),
                    Event(1.5, "D2", "disconnect_feeder", {"index": 0})]
        r = run_scenario(s)
        assert r.log.failure is None
        log = r.log
        t = log.time_array
        nodes = np.array([log.channel(c) for c in log.columns
                          if c.startswith("D2.f0.v")])
        assert len(nodes) > 1
        v_t = np.hypot(log.channel("T.out[0]"), log.channel("T.out[1]"))
        if method is RunMethod.PARALLEL:
            v_t = np.concatenate([[np.nan], v_t[:-1]])
        after = t > 1.5 + 0.5 * s.h_macro
        assert np.count_nonzero(after) > 10
        assert np.all(nodes[:, after] == nodes[0, after])
        assert np.array_equal(nodes[0, after], v_t[after])
        # before the disconnect the feeder's voltages fall along it
        before = (t > 1.0 + 0.5 * s.h_macro) & (t < 1.5)
        assert np.all(nodes[-1, before] < nodes[0, before])

    def test_channels_present(self):
        s = quick_scenario()
        r = run_scenario(s)
        for ch in s.channels:
            assert ch in r.log.columns

    def test_wall_time_recorded(self):
        r = run_scenario(quick_scenario(t_end=0.1))
        assert r.wall_time > 0.0

    @pytest.mark.parametrize("method", list(RunMethod))
    def test_newton_counters_per_owner(self, method):
        r = run_scenario(quick_scenario(method=method, t_end=0.3,
                                        events=True))
        owner = "monolithic" if method is RunMethod.MONOLITHIC else "T"
        assert set(r.newton) == {owner}
        counts = r.newton[owner]
        # one residual evaluation at least per trapezoidal step; the
        # motor start makes the steps after it iterate
        assert counts["residual_evals"] >= 30
        assert 1 <= counts["jacobian_builds"] < 30
        assert counts["reused_steps"] > 0

    @pytest.mark.parametrize("method", [RunMethod.SERIES,
                                        RunMethod.MONOLITHIC])
    def test_no_feeders_rejected_before_building(self, method, monkeypatch):
        def build(scenario, net):
            raise AssertionError("built a scenario with no feeders")

        monkeypatch.setattr(engine, "_build", build)
        s = quick_scenario(method=method)
        s.feeders = []
        with pytest.raises(ValueError, match="no feeders"):
            run_scenario(s)


@pytest.mark.parametrize("method", list(RunMethod))
def test_testcase2_converges_at_h_0_4(method):
    # The T Newton's last iterations at t = 2.4-3.6 s find no halving of
    # their update that lowers the residual norm; taking the last halved
    # update lets them converge a few iterations later.
    s = load_scenario(fixture_path("testcase2"))
    s.method, s.h_macro = method, 0.4
    r = run_scenario(s)
    assert r.log.failure is None
    assert r.verdict is Verdict.CONVERGED


def test_monolithic_scatter_takes_the_last_g(monkeypatch):
    # after every step across the motor start each D output is the
    # interface power at the gathered point, and only g solved a KCL
    s = quick_scenario(RunMethod.MONOLITHIC, h=0.006, t_end=0.2, events=True)
    subsystems, dsubs, buses = engine.build_subsystems(s)
    engine.iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    mono = engine.MonolithicDae(subsystems["T"], dsubs)
    in_g, outside = [False], []
    g, kcl = mono.g, feeder.DistributionFeeder.kcl

    def traced_g(x, y, u):
        in_g[0] = True
        try:
            return g(x, y, u)
        finally:
            in_g[0] = False

    def traced_kcl(self, v, states):
        if not in_g[0]:
            outside.append(self)
        return kcl(self, v, states)

    mono.g = traced_g
    monkeypatch.setattr(feeder.DistributionFeeder, "kcl", traced_kcl)
    steps = []

    def checked(h, switched):
        mono.advance(h, switched)
        assert not outside
        u, _ = mono.interface_power(*mono.gather())
        outside.clear()
        out = np.concatenate([d.output() for d in dsubs.values()])
        assert out.tobytes() == np.asarray(u).tobytes()
        steps.append(h)

    log = march(CouplingSchedule(s.h_macro, s.t_end, tuple(s.events)),
                subsystems, checked)
    assert log.failure is None and len(steps) == 33


def test_testcase2_post_event_steps_keep_their_jacobian():
    # Until the feeder connects at t = 1 s the T steps sit at equilibrium
    # and build no Jacobian.  The first step after it has none kept, so
    # its damped Newton builds one per iteration: 3 from the jump.  From
    # there every step starts from the kept, secant-refined inverse, and
    # a step builds only if its kept update fails to contract and it
    # falls back (at least one build each).  Without the secant update
    # the stale Jacobian fell back 10 times for 23 builds.  So: no
    # fallback, and at most twice the 3 builds of the first solve.
    s = load_scenario(fixture_path("testcase2"))
    s.method, s.h_macro = RunMethod.SERIES, 0.006
    r = run_scenario(s)
    assert r.verdict is Verdict.CONVERGED
    assert r.newton["T"]["fallbacks"] == 0
    assert r.newton["T"]["jacobian_builds"] <= 6


def test_testcase2_keeps_an_inverse_after_every_step(monkeypatch):
    # A damped solve stores the inverse of the last Jacobian it built, so
    # from the first step that builds one on, T's cache holds an inverse
    # after every step: the matrix a sensitivity of T reads between steps.
    seen = []
    advance = transmission.TransmissionSubSystem.advance

    def recorded(self, h):
        advance(self, h)
        cache = self.newton_cache
        seen.append((cache.jacobian_builds, cache.inv is not None))

    monkeypatch.setattr(transmission.TransmissionSubSystem, "advance",
                        recorded)
    s = load_scenario(fixture_path("testcase2"))
    s.method, s.h_macro = RunMethod.SERIES, 0.006
    assert run_scenario(s).verdict is Verdict.CONVERGED
    first = next(k for k, (builds, _) in enumerate(seen) if builds)
    assert first > 0 and all(kept for _, kept in seen[first:])


def test_runs_in_one_process_are_bit_identical():
    # Nothing a run leaves behind in the package, a cache of a module or
    # of a class, may reach the next run: testcase2 at H 0.037 gives the
    # same record bytes and Newton counters run twice in a row, and again
    # after a testcase1 run.
    def testcase2():
        s = load_scenario(fixture_path("testcase2"))
        s.method, s.h_macro = RunMethod.SERIES, 0.037
        r = run_scenario(s)
        return (r.log.as_array().tobytes(), r.log.times, r.verdict,
                r.log.failure, r.newton)

    first = testcase2()
    assert first == testcase2()
    run_scenario(load_scenario(fixture_path("testcase1")))
    assert first == testcase2()


def test_testcase1_set_up_work(monkeypatch):
    # The T-D initialisation alternates T's power flow with every feeder's
    # initialisation, 7 passes here (the last one after the interface
    # powers settle).  Restarted cold, each pass cost 441 motor
    # equilibria and 427 power-flow residual evaluations in all.  Warm:
    # - a feeder pass is one equilibrium per active motor (5 in all) and
    #   one backward/forward sweep pass.  From the flat start a feeder
    #   takes 9-11 passes to 1e-12; each later outer pass starts from its
    #   last profile, and takes fewer, 2 by the last: 208 equilibria, of
    #   which a 1e-13 change of the start moves a pass or two (5-10);
    # - the first power flow starts flat and builds a Jacobian every
    #   iteration (61 evaluations); every later one starts from the last
    #   solution on that kept Jacobian and builds none (2-5 each), 82
    #   evaluations in all.
    # The bounds are half the cold counts.
    equilibria, passes = [], []
    equilibrium = feeder.MotorUnit.equilibrium
    initialize = transmission.TransmissionSubSystem.initialize

    def counted_equilibrium(self, v):
        equilibria.append(1)
        return equilibrium(self, v)

    def counted_pass(self, inputs):
        passes.append(1)
        return initialize(self, inputs)

    monkeypatch.setattr(feeder.MotorUnit, "equilibrium",
                        counted_equilibrium)
    monkeypatch.setattr(transmission.TransmissionSubSystem, "initialize",
                        counted_pass)
    subsystems, dsubs, buses = engine.build_subsystems(
        load_scenario(fixture_path("testcase1")))
    engine.iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    pf = subsystems["T"].power_flow_cache
    assert len(passes) == 7
    assert len(equilibria) <= 441 // 2
    assert pf.residual_evals <= 427 // 2
    assert pf.fallbacks == 0 and pf.reused_steps == len(passes) - 1


class TestLongHorizon:
    """testcase1 at H = 0.6 over 60 s: series stays stable, parallel not.

    The spectral radius of the linearised macro step about the
    post-event state, taken with Newton 1e-12 and rk_tol 1e-10, is
    0.9861 (parallel) and 0.9846 (series) at H = 0.5, and 1.0596 and
    0.9859 at H = 0.6: parallel's stability limit lies in (0.5, 0.6),
    series' in (0.7, 0.8).  The fixture's 15 s horizon is too short to
    tell at H = 0.6.  Over 60 s the parallel run grows until the
    transmission Newton fails at t = 30.6 s, and the series run settles.
    """

    def run(self, method):
        s = load_scenario(fixture_path("testcase1"))
        s.method, s.h_macro, s.t_end = method, 0.6, 60.0
        return run_scenario(s)

    def test_parallel_fails(self):
        r = self.run(RunMethod.PARALLEL)
        assert r.verdict is Verdict.DIVERGED
        assert r.log.failure.startswith(
            "sub-system failure at t=30.6: Newton did not converge")

    def test_series_converges(self):
        r = self.run(RunMethod.SERIES)
        assert r.log.failure is None
        assert r.verdict is Verdict.CONVERGED
        assert r.log.times[-1] == pytest.approx(60.0)


BAD_RUN = [("h_macro", 0.0), ("h_macro", math.inf), ("h_macro", math.nan),
           ("t_end", -1.0), ("t_end", math.inf), ("t_end", math.nan),
           ("rk_tol", 0.0), ("rk_tol", -1e-6), ("rk_tol", math.nan)]


@pytest.mark.parametrize("field, value", BAD_RUN)
def test_code_built_scenario_rejects_bad_run_parameter(field, value):
    s = load_scenario(fixture_path("testcase1"))
    with pytest.raises(ValueError, match=rf"^run\.{field}: must be finite"):
        dataclasses.replace(s, **{field: value})


@pytest.mark.parametrize("field, value", BAD_RUN)
@pytest.mark.parametrize("method", list(RunMethod))
def test_run_rejects_bad_run_parameter_before_building(monkeypatch, method,
                                                       field, value):
    # set after construction, as the CLI's --h and --t-end do; the
    # monolithic run, which reads no rk_tol, rejects a bad one all the same
    s = quick_scenario(method=method)
    setattr(s, field, value)

    def build(scenario, net):
        raise AssertionError("built a run with a bad parameter")

    monkeypatch.setattr(engine, "_build", build)
    with pytest.raises(ValueError, match=rf"^run\.{field}: must be finite"):
        run_scenario(s)


def test_feeder_spec_rejects_zero_impedance():
    # the feeder divides by every branch impedance
    fs = load_scenario(fixture_path("testcase1")).feeders[0]
    with pytest.raises(ValueError,
                       match=r"^branches\[0\]: zero impedance \(r = x = 0\)"):
        dataclasses.replace(fs, branches=(FeederBranch(0, 1, 0.0, -0.0),))
    dataclasses.replace(fs, branches=(FeederBranch(0, 1, 0.0, 0.01),))


def test_scenario_without_feeders_rejected_when_made():
    with pytest.raises(ValueError, match="^feeders: no feeders"):
        Scenario("x", "twobus", [], events=[], method=RunMethod.SERIES,
                 h_macro=0.006, t_end=10.0, rk_tol=1e-6, channels=[])


def _replace_feeder(s, k, **changes):
    s.feeders[k] = dataclasses.replace(s.feeders[k], **changes)


def _replace_event(s, i, **changes):
    s.events[i] = dataclasses.replace(s.events[i], **changes)


def _rename_motor(s, k, i, name):
    motors = list(s.feeders[k].motors)
    motors[i] = dataclasses.replace(motors[i], name=name)
    _replace_feeder(s, k, motors=tuple(motors))


# each rule about a whole testcase2 scenario: one edit of its file, the
# same edit of a loaded scenario, and the path the message starts with
SCENARIO_RULES = {
    "h_macro": (lambda d: d["run"].update(h_macro=0.0),
                lambda s: setattr(s, "h_macro", 0.0), "run.h_macro: "),
    "t_end": (lambda d: d["run"].update(t_end=-1.0),
              lambda s: setattr(s, "t_end", -1.0), "run.t_end: "),
    "rk_tol": (lambda d: d["run"].update(rk_tol=0.0),
               lambda s: setattr(s, "rk_tol", 0.0), "run.rk_tol: "),
    "no_feeders": (lambda d: d.update(feeders=[]),
                   lambda s: setattr(s, "feeders", []), "feeders: "),
    "network": (lambda d: d.update(transmission="no_such_network"),
                lambda s: setattr(s, "transmission", "no_such_network"),
                "transmission 'no_such_network': "),
    "unknown_bus": (lambda d: d["feeders"][1].update(bus=99),
                    lambda s: _replace_feeder(s, 1, bus=99),
                    "feeders[1].bus: "),
    "motor_name_repeated": (
        lambda d: d["feeders"][1]["composition"]["motors"][0].update(
            name="f1_im"),
        lambda s: _rename_motor(s, 1, 0, "f1_im"),
        "feeders[1].composition.motors[0].name: "),
    "event_target": (lambda d: d["events"][0].update(target="D9"),
                     lambda s: _replace_event(s, 0, target="D9"),
                     "events[0].target: "),
    "event_action": (lambda d: d["events"][0].update(action="trip"),
                     lambda s: _replace_event(s, 0, action="trip"),
                     "events[0].action: "),
    "event_params": (lambda d: d["events"][0].update(params={}),
                     lambda s: _replace_event(s, 0, params={}),
                     "events[0].params: "),
    "event_index": (lambda d: d["events"][0].update(params={"index": 2}),
                    lambda s: _replace_event(s, 0, params={"index": 2}),
                    "events[0].params.index: "),
    "event_after_last_step": (lambda d: d["events"][0].update(time=5.0),
                              lambda s: _replace_event(s, 0, time=5.0),
                              "events: event at t=5.0 outside"),
    "channels": (lambda d: d["outputs"].update(channels=["D2.nope"]),
                 lambda s: setattr(s, "channels", ["D2.nope"]),
                 "outputs.channels: unknown channels ['D2.nope']"),
}


@pytest.mark.parametrize("rule", SCENARIO_RULES)
def test_scenario_rule_refused_alike_when_parsed_and_when_run(rule,
                                                              monkeypatch):
    # a scenario changed after it was made is refused before anything is
    # built, with the message its file would have been refused with
    edit_file, edit_scenario, prefix = SCENARIO_RULES[rule]
    with open(fixture_path("testcase2")) as fh:
        doc = json.load(fh)
    edit_file(doc)
    with pytest.raises(SchemaError) as parsed:
        parse_scenario(doc)

    def build(scenario, net):
        raise AssertionError("built a scenario that breaks a rule")

    monkeypatch.setattr(engine, "_build", build)
    s = load_scenario(fixture_path("testcase2"))
    edit_scenario(s)
    with pytest.raises(ValueError) as run:
        run_scenario(s)
    assert str(run.value) == str(parsed.value)
    assert str(run.value).startswith(prefix)


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name enclosed in double quotes"),
    ('{"f_hz": 60.0}', "buses: missing"),
    ('{"buses": 5}', "buses: expected a list, got int"),
], ids=["not_json", "no_buses", "buses_a_number"])
def test_network_error_starts_with_the_transmission_path(tmp_path, text,
                                                          message):
    path = tmp_path / "net.json"
    path.write_text(text)
    s = load_scenario(fixture_path("testcase2"))
    s.transmission = str(path)
    with pytest.raises(ValueError) as exc:
        engine.check_scenario(s)
    assert str(exc.value).startswith(f"transmission {str(path)!r}: {message}")
