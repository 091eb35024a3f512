"""The benchmark's tracer still finds every boundary it patches.

``bench/tracing.py`` wraps functions and methods of the package by name;
a rename there would only show when the benchmark's traced runs fail.
"""

import importlib.util
import pathlib

from cotds import engine
from cotds.engine import RunMethod
from cotds.scenario_io import fixture_path, load_scenario

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
    s.method, s.t_end, s.events = RunMethod.MONOLITHIC, 0.05, []
    with tracing.instrumented(tracer):
        engine.run_scenario(s)
    assert [getattr(owner, attr) for owner, attr in boundaries] == before
    metrics = tracing.layer_metrics(tracer)
    assert metrics["integrators.g_evals"] > 0
    assert metrics["engine.mono_residual.s"] > 0
