"""cotds benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 bench/run.py --workload tc1-cosim --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with the environment and every unit's sample is written under
``.bench_out/``.  Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("tc1-cosim", "tc1-mono", "tc2-hsweep", "linlab-map")
END_TO_END = [("run_s", "s"), ("steps_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def bootstrap() -> None:
    """Pin BLAS to one thread and import cotds from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("COTDS_OUT_DIR", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cotds", "__init__.py")):
        raise RuntimeError(f"no cotds package under {src}")
    sys.path.insert(0, src)
    import cotds
    if not os.path.abspath(cotds.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cotds imported from {cotds.__file__}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bootstrap()
        import harness
        import tracing
        from workloads import WORKLOADS, reference
        reference()   # the T-D references must be present
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = os.path.join(harness.OUT_DIR, f"{tag}-spans.csv.gz")
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        metrics, samples, extra = harness.traced_run(workload, args.seed,
                                                     spans)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics, samples, extra = harness.end_to_end(workload, args.seed,
                                                     args.seconds)
        units = dict(END_TO_END)
    metrics = {name: metrics[name] for name in units}
    failed = sum(1 for s in samples if s.error)
    env = harness.environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()

    harness.write_result(os.path.join(harness.OUT_DIR, f"{tag}.json"), {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": metrics, "failed_runs": failed / len(samples),
        "units": [vars(s) for s in samples], **extra})

    print(f"{args.workload} seed {args.seed}: {len(samples)} units, "
          f"{failed} failed, nproc {env['nproc']}, "
          f"load {load_before[0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_runs':40s} {failed / len(samples):>16.6g} share")
        wall = statistics.median(s.wall_s for s in samples)
        speed = harness.REFERENCE_KERNEL_S / statistics.median(
            extra["kernel_samples_s"])
        print(f"  {'(run_s as wall time)':40s} {wall:>16.6g} s")
        print(f"  {'(machine speed / reference)':40s} {speed:>16.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
