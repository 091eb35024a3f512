"""Outside-in tracing of the cotds layer boundaries.

Nothing under ``src/`` knows about this module.  ``instrumented`` replaces
public functions and methods with wrappers for the duration of a ``with``
block and restores the originals afterwards.  A function is patched where
it is looked up at call time: ``cotds.transmission`` imports
``trapezoidal_dae_step`` by name, so the wrapper goes on
``cotds.transmission.trapezoidal_dae_step``; patching only
``cotds.integrators`` would record nothing.

Two kinds of wrapper exist:

- a span measures inclusive time, tracks the time of its child spans to
  give self time, and (for the coarse layers) keeps a record with the id
  of its parent and of the root span of its unit;
- a counter only counts calls, optionally only while a named span is
  open (``under``), which is how per-step ratios are measured where the
  work happens.

Spans stay in memory and are written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "instrumented", "layer_metrics", "write_spans",
           "LAYER_METRICS", "UNIT_SPAN"]

UNIT_SPAN = "bench.unit"


class Tracer:
    """Span and count store for one traced round."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        # (root id, span id, parent id, name, start, end, self seconds)
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # [span id, root id, child seconds]
        self._next_id = 1

    def span(self, name, fn, record=True, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, result)`` may add counts."""
        stack, active, clock = self._stack, self.active, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent, root = stack[-1][0], stack[-1][1]
            else:
                parent, root = 0, sid
            frame = [sid, root, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                if record:
                    self.spans.append((root, sid, parent, name, t0, t1,
                                       dur - frame[2]))
            if after is not None:
                after(self, args, out)
            return out
        return traced

    def counter(self, name, fn, under=None):
        """Wrap ``fn`` to count its calls, only inside span ``under`` if given."""
        active, counts = self.active, self.counts

        def counted(*args, **kwargs):
            if under is None or active[under]:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _macro_steps(tracer, args, log):
    tracer.counts["cosim.macro_steps"] += max(len(log.times) - 1, 0)


def _csv_bytes(tracer, args, out):
    tracer.counts["scenario_io.write_csv.bytes"] += os.path.getsize(args[0])


def _boundaries(t: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    import numpy
    from cotds import (cli, engine, feeder, linlab, loads, machines,
                       scenario_io, transmission)

    trap = "integrators.trap_step"

    def span(name, **kw):
        return lambda fn: t.span(name, fn, **kw)

    def leaf(name):
        return lambda fn: t.span(name, fn, record=False)

    def count(name, under=None):
        return lambda fn: t.counter(name, fn, under)

    def both(outer, inner):
        return lambda fn: outer(inner(fn))

    return [
        # orchestrator
        (engine, "run_cosimulation", span("cosim.run", after=_macro_steps)),
        # transmission side and its DAE kernel, at both import sites
        (transmission.TransmissionSubSystem, "advance",
         span("transmission.advance")),
        (transmission, "trapezoidal_dae_step", span(trap)),
        (engine, "trapezoidal_dae_step", span(trap)),
        (transmission.TransmissionDae, "f", count("integrators.f_evals", trap)),
        (transmission.TransmissionDae, "g", count("integrators.g_evals", trap)),
        (engine.MonolithicDae, "f",
         both(count("integrators.f_evals", trap), leaf("engine.mono_residual"))),
        (engine.MonolithicDae, "g",
         both(count("integrators.g_evals", trap), leaf("engine.mono_residual"))),
        (numpy.linalg, "solve", count("integrators.newton_solves", trap)),
        # distribution side
        (feeder.DistributionSubSystem, "advance", span("feeder.advance")),
        (feeder.DistributionFeeder, "sweep", span("feeder.sweep")),
        (feeder.DistributionFeeder, "node_currents",
         count("feeder.sweep_iters", "feeder.sweep")),
        (feeder.DistributionFeeder, "step_motors", span("feeder.step_motors")),
        (feeder, "rk_component_step", span("integrators.rk_step")),
        # component models
        (machines.GeneratorBank, "derivatives", leaf("machines.derivatives")),
        (machines.GeneratorBank, "injected_current",
         leaf("machines.injected_current")),
        (loads.InductionMotor, "derivatives",
         both(count("integrators.rk_derivs", "integrators.rk_step"),
              leaf("loads.motor_derivatives"))),
        (loads.InductionMotor, "terminal_power", leaf("loads.terminal_power")),
        (transmission, "zip_power", count("loads.zip_power.calls")),
        (engine, "zip_power", count("loads.zip_power.calls")),
        (feeder, "zip_power", count("loads.zip_power.calls")),
        # scenario semantics and power flow
        (engine, "iterative_td_powerflow_init", span("engine.init")),
        (engine, "detect_convergence", span("engine.detect")),
        (transmission, "newton_power_flow", span("power_network.power_flow")),
        # I/O
        (scenario_io, "load_scenario", span("scenario_io.load")),
        (cli, "load_scenario", span("scenario_io.load")),
        (cli, "write_csv", span("scenario_io.write_csv", after=_csv_bytes)),
        # linear test system
        (linlab, "build_step_matrix", leaf("linlab.step_matrix")),
        (linlab, "find_stability_threshold", span("linlab.threshold")),
        (linlab, "stability_sweep", span("linlab.sweep")),
        (linlab, "simulate_linear", span("linlab.simulate")),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every boundary for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, make in _boundaries(tracer):
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("cosim.run.s", "s", "lower"),
    ("cosim.self_s", "s", "lower"),
    ("cosim.macro_steps", "count", "higher"),
    ("transmission.advance.calls", "count", "higher"),
    ("transmission.advance.s", "s", "lower"),
    ("integrators.trap_step.calls", "count", "higher"),
    ("integrators.trap_step.s", "s", "lower"),
    ("integrators.residual_evals", "count", "lower"),
    ("integrators.g_evals", "count", "lower"),
    ("integrators.residual_evals_per_step", "evals/step", "lower"),
    ("integrators.newton_solves", "count", "lower"),
    ("integrators.rk_step.calls", "count", "higher"),
    ("integrators.rk_step.s", "s", "lower"),
    ("integrators.rk_derivs_per_call", "evals/call", "lower"),
    ("feeder.advance.calls", "count", "higher"),
    ("feeder.advance.s", "s", "lower"),
    ("feeder.sweep.calls", "count", "lower"),
    ("feeder.sweep.s", "s", "lower"),
    ("feeder.sweep_iters", "count", "lower"),
    ("feeder.step_motors.s", "s", "lower"),
    ("machines.derivatives.calls", "count", "lower"),
    ("machines.derivatives.s", "s", "lower"),
    ("machines.injected_current.calls", "count", "lower"),
    ("machines.injected_current.s", "s", "lower"),
    ("loads.motor_derivatives.calls", "count", "lower"),
    ("loads.motor_derivatives.s", "s", "lower"),
    ("loads.terminal_power.calls", "count", "lower"),
    ("loads.terminal_power.s", "s", "lower"),
    ("loads.zip_power.calls", "count", "lower"),
    ("engine.mono_residual.s", "s", "lower"),
    ("engine.init.s", "s", "lower"),
    ("engine.detect.s", "s", "lower"),
    ("power_network.power_flow.calls", "count", "lower"),
    ("power_network.power_flow.s", "s", "lower"),
    ("scenario_io.load.s", "s", "lower"),
    ("scenario_io.write_csv.calls", "count", "lower"),
    ("scenario_io.write_csv.s", "s", "lower"),
    ("scenario_io.write_csv.bytes", "bytes", "lower"),
    ("linlab.step_matrix.calls", "count", "lower"),
    ("linlab.step_matrix.s", "s", "lower"),
    ("linlab.threshold.s", "s", "lower"),
    ("linlab.sweep.s", "s", "lower"),
    ("linlab.simulate.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("check.traj_dev_max", "pu", "lower"),
]


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead and check.traj_dev_max."""
    c = t.counts
    evals = c["integrators.f_evals"] + c["integrators.g_evals"]
    trap_steps = t.calls["integrators.trap_step"]
    rk_calls = t.calls["integrators.rk_step"]
    out = {
        "cosim.self_s": t.self_s.get("cosim.run", 0.0),
        "integrators.residual_evals": evals,
        "integrators.residual_evals_per_step":
            evals / trap_steps if trap_steps else 0.0,
        "integrators.rk_derivs_per_call":
            c["integrators.rk_derivs"] / rk_calls if rk_calls else 0.0,
    }
    for name, _, _ in LAYER_METRICS[:-2]:
        base, _, kind = name.rpartition(".")
        if name in out:
            continue
        if name in c:
            out[name] = c[name]
        elif kind == "calls":
            out[name] = t.calls[base]
        elif kind == "s":
            out[name] = t.total_s.get(base, 0.0)
        else:
            out[name] = 0
    return out


def write_spans(t: Tracer, path: str) -> None:
    """Recorded spans as gzipped CSV, times relative to the first span."""
    t0 = min((s[4] for s in t.spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write("unit,id,parent,name,start_s,end_s,self_s\n")
        for root, sid, parent, name, start, end, self_s in t.spans:
            fh.write(f"{root},{sid},{parent},{name},{start - t0:.9f},"
                     f"{end - t0:.9f},{self_s:.9f}\n")
