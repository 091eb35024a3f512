"""The benchmark's own tests.

    python3 bench/selftest.py

Checks, on traced rounds of every workload:

- every wrapped boundary records a non-zero count on the workload meant
  to exercise it, and the layers a workload bypasses record nothing;
- every count repeats exactly across two traced rounds of the same seed;
- the transmission-side residual count of one ``testcase1`` series run
  at H 0.006 (2500 + 1332 x 37 evaluations of ``g``);
- on ``tc1-mono`` every feeder sweep comes from initialisation;
- instrumentation leaves every patched attribute as it found it.

It takes a few minutes, so its name keeps it out of pytest collection.
"""

from __future__ import annotations

import sys

import run

# per workload: metrics that must be non-zero, and metrics that must be 0
EXERCISED = {
    "tc1-cosim": [
        "cosim.run.s", "cosim.self_s", "cosim.macro_steps",
        "transmission.advance.calls", "integrators.trap_step.calls",
        "integrators.residual_evals", "integrators.newton_solves",
        "integrators.rk_step.calls", "integrators.rk_derivs_per_call",
        "feeder.advance.calls", "feeder.sweep.calls", "feeder.sweep_iters",
        "feeder.step_motors.s", "machines.derivatives.calls",
        "machines.injected_current.calls", "loads.motor_derivatives.calls",
        "loads.terminal_power.calls", "loads.zip_power.calls",
        "engine.init.s", "engine.detect.s", "power_network.power_flow.calls",
        "scenario_io.load.s", "scenario_io.write_csv.calls",
        "scenario_io.write_csv.bytes"],
    "tc1-mono": [
        "integrators.trap_step.calls", "integrators.residual_evals",
        "integrators.newton_solves", "engine.mono_residual.s",
        "machines.derivatives.calls", "machines.injected_current.calls",
        "loads.motor_derivatives.calls", "loads.terminal_power.calls",
        "loads.zip_power.calls", "engine.init.s", "engine.detect.s",
        "power_network.power_flow.calls", "feeder.sweep.calls",
        "scenario_io.load.s"],
    "tc2-hsweep": [
        "cosim.run.s", "cosim.macro_steps", "transmission.advance.calls",
        "integrators.trap_step.calls", "integrators.residual_evals",
        "integrators.newton_solves", "integrators.rk_step.calls",
        "feeder.advance.calls", "feeder.sweep.calls", "feeder.sweep_iters",
        "machines.derivatives.calls", "loads.motor_derivatives.calls",
        "loads.terminal_power.calls", "engine.init.s",
        "power_network.power_flow.calls", "scenario_io.load.s"],
    "linlab-map": [
        "linlab.step_matrix.calls", "linlab.threshold.s", "linlab.sweep.s",
        "linlab.simulate.s"],
}
BYPASSED = {
    "tc1-cosim": ["engine.mono_residual.s", "linlab.step_matrix.calls"],
    "tc1-mono": ["cosim.macro_steps", "transmission.advance.calls",
                 "feeder.advance.calls", "integrators.rk_step.calls",
                 "scenario_io.write_csv.calls", "linlab.step_matrix.calls"],
    "tc2-hsweep": ["engine.mono_residual.s", "scenario_io.write_csv.calls",
                   "linlab.step_matrix.calls"],
    "linlab-map": ["integrators.trap_step.calls", "feeder.sweep.calls",
                   "machines.derivatives.calls", "engine.init.s",
                   "scenario_io.load.s"],
}
SEED = 7


def _counts(metrics: dict, tracing) -> dict:
    timed = {name for name, unit, _ in tracing.LAYER_METRICS if unit == "s"}
    return {k: v for k, v in metrics.items() if k not in timed}


def _ancestor_names(spans, sid) -> set:
    parent = {s[1]: s[2] for s in spans}
    name = {s[1]: s[3] for s in spans}
    out = set()
    while parent.get(sid, 0):
        sid = parent[sid]
        out.add(name[sid])
    return out


def main() -> int:
    run.bootstrap()
    import harness
    import tracing
    from workloads import WORKLOADS, Workload, scenario_unit

    failures = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            failures.append(message)

    from cotds import engine, feeder, transmission
    before = {(o, a): getattr(o, a) for o, a in [
        (engine, "run_cosimulation"), (transmission, "trapezoidal_dae_step"),
        (feeder, "rk_component_step"), (feeder.DistributionFeeder, "sweep")]}

    for name, workload in WORKLOADS.items():
        runs = [harness.traced_round(workload, SEED) for _ in range(2)]
        (tracer, samples), (tracer2, samples2) = runs
        metrics = tracing.layer_metrics(tracer)
        expect(not any(s.error for s in samples + samples2),
               f"{name}: every unit passes its output check")
        for metric in EXERCISED[name]:
            expect(metrics[metric] > 0, f"{name}: {metric} is non-zero")
        for metric in BYPASSED[name]:
            expect(metrics[metric] == 0, f"{name}: {metric} is zero")
        c1 = _counts(metrics, tracing)
        c2 = _counts(tracing.layer_metrics(tracer2), tracing)
        differ = sorted(k for k in c1 if c1[k] != c2[k])
        expect(not differ, f"{name}: counts repeat exactly {differ or ''}")
        if name == "tc1-mono":
            sweeps = [s[1] for s in tracer.spans if s[3] == "feeder.sweep"]
            stray = [sid for sid in sweeps if "engine.init"
                     not in _ancestor_names(tracer.spans, sid)]
            expect(sweeps and not stray,
                   f"tc1-mono: all {len(sweeps)} feeder sweeps are under "
                   f"engine.init ({len(stray)} are not)")

    series = Workload(lambda seed, k: [scenario_unit("testcase1", "series",
                                                     0.006)], None)
    tracer, samples = harness.traced_round(series, SEED)
    m = tracing.layer_metrics(tracer)
    g = m["integrators.g_evals"]
    f = m["integrators.residual_evals"] - g
    expect(m["integrators.trap_step.calls"] == 2500,
           f"testcase1 series: {m['integrators.trap_step.calls']} "
           "trapezoidal steps == 2500")
    expect(g == 2500 + 1332 * 37,
           f"testcase1 series: {g} evaluations of g == 2500 + 1332 x 37")
    expect(f == 54284, f"testcase1 series: {f} evaluations of f == 54284")

    after = {(o, a): getattr(o, a) for o, a in before}
    expect(after == before, "instrumentation restores patched attributes")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
