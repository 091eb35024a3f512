"""The benchmark's tracer still finds every boundary it patches.

``bench/tracing.py`` wraps functions and methods of the package by name;
a rename there would only show when the benchmark's traced runs fail.
The monolithic run also keeps the invariants ``bench/selftest.py``
checks on ``tc1-mono``: it runs no macro-step exchange, and it sweeps
feeders only during initialisation, even across a motor event.  A
co-simulation run must pass through the distribution-side boundaries,
so a feeder kernel that goes around them fails here, not only in the
benchmark's counts.
"""

import importlib.util
import pathlib

from cotds import engine
from cotds.cosim import Event
from cotds.engine import RunMethod
from cotds.scenario_io import fixture_path, load_scenario
from cotds.transmission import TransmissionSubSystem

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_counts_and_restores():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    boundaries = [(owner, attr) for owner, attr, _
                  in tracing._boundaries(tracer)]
    before = [getattr(owner, attr) for owner, attr in boundaries]
    s = load_scenario(fixture_path("testcase1"))
    s.method, s.t_end = RunMethod.MONOLITHIC, 0.05
    s.events = [Event(0.02, "D6", "connect_motor", {"name": "bus6_im2"})]
    with tracing.instrumented(tracer):
        engine.run_scenario(s)
    assert [getattr(owner, attr) for owner, attr in boundaries] == before
    metrics = tracing.layer_metrics(tracer)
    assert metrics["integrators.g_evals"] > 0
    assert metrics["engine.mono_residual.s"] > 0
    assert metrics["cosim.macro_steps"] == 0

    # (root, id, parent, name, ...) per recorded span
    parent = {span[1]: span[2] for span in tracer.spans}
    name = {span[1]: span[3] for span in tracer.spans}

    def under_init(sid):
        while sid:
            sid = parent.get(sid, 0)
            if name.get(sid) == "engine.init":
                return True
        return False

    sweeps = [span[1] for span in tracer.spans if span[3] == "feeder.sweep"]
    assert sweeps and all(under_init(sid) for sid in sweeps)


def test_cosim_passes_the_traced_distribution_path():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    s = load_scenario(fixture_path("testcase1"))
    s.method, s.h_macro, s.t_end = RunMethod.SERIES, 0.01, 0.05
    s.events = [Event(0.02, "D6", "connect_motor", {"name": "bus6_im2"})]
    with tracing.instrumented(tracer):
        engine.run_scenario(s)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cosim.macro_steps"] == 5
    assert metrics["integrators.rk_step.calls"] > 0
    assert metrics["loads.motor_derivatives.calls"] > 0
    assert metrics["feeder.sweep_iters"] > 0
    # a Dormand-Prince step takes seven derivative evaluations
    assert metrics["integrators.rk_derivs_per_call"] >= 7


def test_init_layer_records_one_power_flow_per_pass(monkeypatch):
    # the tracer finds the T-D initialisation and its power flows by
    # name: engine.iterative_td_powerflow_init, and newton_power_flow
    # where transmission looks it up
    tracing = load_tracing()
    tracer = tracing.Tracer()
    passes = []
    initialize = TransmissionSubSystem.initialize

    def counted(self, inputs):
        passes.append(1)
        return initialize(self, inputs)

    monkeypatch.setattr(TransmissionSubSystem, "initialize", counted)
    s = load_scenario(fixture_path("testcase1"))
    s.method, s.h_macro, s.t_end = RunMethod.SERIES, 0.01, 0.05
    s.events = []
    with tracing.instrumented(tracer):
        engine.run_scenario(s)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.init.s"] > 0
    assert passes and metrics["power_network.power_flow.calls"] == len(passes)
