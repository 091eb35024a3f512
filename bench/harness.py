"""Runs a workload's rounds, times each unit, and turns samples into metrics.

Times are wall seconds rescaled to a fixed machine speed (``SpeedClock``):
the shared host this benchmark was defined on runs identical work up to
1.5x faster or slower from one minute to the next, which no run length
averages out.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata

import numpy as np

import tracing
from workloads import BENCH_DIR, OUT_DIR, SETUP_REPS, Workload

__all__ = ["Sample", "SpeedClock", "run_rounds", "end_to_end", "traced_round",
           "traced_run", "environment", "OUT_DIR"]

ROOT = os.path.dirname(BENCH_DIR)

# Seconds the calibration kernel takes at the reference speed: its median
# on the 2-vCPU Xeon VM (2.1 GHz) the baseline was recorded on.
REFERENCE_KERNEL_S = 0.0032
# period of the calibrations made inside a long call
TICK_S = 0.25
_KERNEL_MATRIX = np.array([[0.3, -1.2], [0.7, 0.1]])


def _kernel() -> float:
    """Fixed work of the two kinds the program does: interpreted float
    arithmetic and many small numpy linear-algebra calls."""
    x = 0.0
    for i in range(5000):
        x += (i % 7) * 0.5
    m = _KERNEL_MATRIX
    for _ in range(100):
        x += float(np.max(np.abs(np.linalg.eigvals(m @ m + 0.1))))
    return x


def _calibrate() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Times calls in wall seconds and in seconds at the reference speed.

    The calibration kernel is timed after every timed call and, with
    ``ticks``, every ``TICK_S`` seconds inside it, from a SIGALRM handler.
    A call's wall time, less the ticks inside it, multiplied by
    ``REFERENCE_KERNEL_S`` over the mean kernel time from the calibration
    before it to the one after it, is its time at the speed at which the
    kernel takes ``REFERENCE_KERNEL_S``.  The kernel runs none of the
    program's code, so a change to the program moves the rescaled time as
    much as the wall time.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        _kernel()                 # warm-up
        self.kernel_s = [_calibrate()]

    def time(self, fn):
        """(output, wall seconds, reference seconds) of ``fn()``.

        If ``fn`` raises, the exception carries on after calibrating.
        """
        first = len(self.kernel_s) - 1

        def tick(signum, frame):
            self.kernel_s.append(_calibrate())

        if self.ticks:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = (time.perf_counter() - t0
                    - sum(self.kernel_s[first + 1:]))   # less the ticks
            if self.ticks:
                signal.signal(signal.SIGALRM, previous)
            self.kernel_s.append(_calibrate())
        speed = REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[first:])
        return out, wall, wall * speed


@dataclass
class Sample:
    label: str
    seconds: float                   # at the reference speed
    wall_s: float
    steps: int
    deviation: float
    error: str | None = None


def _run_unit(unit, clock: SpeedClock, tracer=None) -> Sample:
    outputs, wall, seconds = [], 0.0, 0.0
    try:
        for part in unit.parts:
            fn = part if tracer is None else tracer.span(tracing.UNIT_SPAN,
                                                         part)
            out, w, s = clock.time(fn)
            outputs.append(out)
            wall, seconds = wall + w, seconds + s
    except Exception:  # a failing unit is counted, the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        return Sample(unit.label, seconds, wall, 0, 0.0, "raised")
    try:
        dev = unit.check(outputs)
    except Exception as exc:
        print(f"check failed: {unit.label}: {exc}", file=sys.stderr)
        return Sample(unit.label, seconds, wall, 0, 0.0, f"check: {exc}")
    return Sample(unit.label, seconds, wall, unit.steps, dev)


def run_rounds(workload: Workload, seed: int, budget: float, clock: SpeedClock,
               max_rounds: int | None = None, tracer=None,
               after_unit=None) -> list[Sample]:
    """Whole rounds until the next one would end past ``budget`` seconds.

    At least one round runs.  Round k's units come from (seed, k).
    ``after_unit``, if given, is called after each unit, outside its timing.
    """
    samples = []
    t_start = time.perf_counter()
    k = 0
    while True:
        for unit in workload.round(seed, k):
            samples.append(_run_unit(unit, clock, tracer))
            if after_unit is not None:
                after_unit()
        k += 1
        elapsed = time.perf_counter() - t_start
        if max_rounds is not None and k >= max_rounds:
            break
        if elapsed + elapsed / k > budget:
            break
    return samples


def _median_time(samples) -> float:
    return statistics.median(s.seconds for s in samples)


def end_to_end(workload: Workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics and the samples behind them."""
    clock = SpeedClock()
    setup = workload.setup(seed)
    setups = []

    def timed_setup():
        setups.append(clock.time(setup)[2])

    # one warm-up set-up, then SETUP_REPS timed before the rounds, one after
    # each unit and SETUP_REPS after the rounds, so that their median spans
    # the same stretch of machine load as the units
    setup()
    for _ in range(SETUP_REPS):
        timed_setup()
    samples = run_rounds(workload, seed, seconds, clock,
                         after_unit=timed_setup)
    for _ in range(SETUP_REPS):
        timed_setup()
    metrics = {
        "run_s": _median_time(samples),
        # median of per-unit rates: a burst of host load moves a few units,
        # not the figure, as it would move total steps over total time
        "steps_per_s": statistics.median(s.steps / s.seconds
                                         for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, samples, {"setup_samples_s": setups,
                              "kernel_samples_s": clock.kernel_s}


def traced_round(workload: Workload, seed: int):
    """Round 0 of the workload with every boundary instrumented."""
    tracer = tracing.Tracer()
    clock = SpeedClock(ticks=False)   # no kernel time inside the spans
    with tracing.instrumented(tracer):
        samples = run_rounds(workload, seed, 0.0, clock, max_rounds=1,
                             tracer=tracer)
    return tracer, samples


def traced_run(workload: Workload, seed: int, spans_path: str):
    """One untraced and one traced round of the same units: layer metrics."""
    untraced = run_rounds(workload, seed, 0.0, SpeedClock(ticks=False),
                          max_rounds=1)
    tracer, traced = traced_round(workload, seed)
    samples = untraced + traced
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead"] = _median_time(traced) / _median_time(untraced)
    metrics["check.traj_dev_max"] = max(s.deviation for s in samples)
    tracing.write_spans(tracer, spans_path)
    return metrics, samples, {"spans": os.path.relpath(spans_path, ROOT)}


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def write_result(path: str, record: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
