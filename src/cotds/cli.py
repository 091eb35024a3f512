"""Command-line front end.

Subcommands:

    cotds linlab simulate    trajectory CSV for the linear test system
    cotds linlab stability   (H, spectral radius) sweep CSV per scheme
    cotds linlab truncation  local truncation error vs H CSV
    cotds cotds run          execute a scenario file, emit CSVs + summary
    cotds compare            deviation report between two run directories

Exit codes: 0 success, 1 usage error, 2 schema/validation error,
3 numeric failure, including a run cut short (its files are still
written).  COTDS_OUT_DIR overrides any output directory flag.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import linlab
from .engine import RunMethod, compare_runs, run_scenario
from .integrators import NumericFailure
from .scenario_io import (SchemaError, load_scenario, read_csv, write_csv)

EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3

_SCHEMES = {
    "total": linlab.SchemeId.TOTAL_TRAPEZOIDAL,
    "parallel": linlab.SchemeId.COSIM_PARALLEL,
    "series": linlab.SchemeId.COSIM_SERIES,
}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _out_dir(flag_value: str | None) -> str:
    return os.environ.get("COTDS_OUT_DIR") or flag_value or "."


def _params(args) -> linlab.LinearCoupledParams:
    try:
        return linlab.LinearCoupledParams(
            lambda_a=args.lambda_a, lambda_b=args.lambda_b,
            k_a=args.ka, k_b=args.kb)
    except ValueError as exc:
        raise CliError(f"invalid parameters: {exc}", EXIT_USAGE)


def _add_param_flags(p):
    p.add_argument("--lambda-a", type=float, required=True)
    p.add_argument("--lambda-b", type=float, required=True)
    p.add_argument("--ka", type=float, required=True)
    p.add_argument("--kb", type=float, required=True)
    p.add_argument("--n", type=int, default=100,
                   help="micro steps per macro step")


def _write_table(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savetxt(path, rows, delimiter=",", header=",".join(header),
               comments="", fmt="%.12e")


def cmd_linlab_simulate(args) -> int:
    p = _params(args)
    try:
        x0 = linlab.StateVec2(args.x0[0], args.x0[1])
        scheme = _SCHEMES[args.scheme]
        traj = linlab.simulate_linear(p, x0, args.h, args.n,
                                      args.t_end, scheme)
    except (KeyError, ValueError) as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    rows = []
    for t, st in zip(traj.times, traj.states):
        ref = linlab.analytic_solution(p, x0, float(t))
        rows.append((float(t), st[0], st[1], ref.x_a, ref.x_b))
    path = os.path.join(_out_dir(args.out_dir), args.out)
    _write_table(path, ["t", "x_a", "x_b", "x_a_exact", "x_b_exact"], rows)
    print(path)
    if traj.diverged:
        print(f"numeric error: trajectory diverged after t={traj.times[-1]:.6g}; "
              f"wrote {len(rows)} rows", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_linlab_stability(args) -> int:
    p = _params(args)
    if args.h_max <= args.h_min or args.points < 1:
        raise CliError("empty H range", EXIT_USAGE)
    grid = np.linspace(args.h_min, args.h_max, args.points)
    try:
        sweeps = [linlab.stability_sweep(p, _SCHEMES[s], args.n, grid)
                  for s in args.schemes]
    except ValueError as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    rhos = [[rho for _, rho in sweep] for sweep in sweeps]
    rows = np.column_stack([grid, *rhos, np.ones_like(grid)])  # rho = 1 line
    header = ["h"] + [f"rho_{name}" for name in args.schemes] + ["rho_one"]
    path = os.path.join(_out_dir(args.out_dir), args.out)
    _write_table(path, header, rows)
    print(path)
    return 0


def cmd_linlab_truncation(args) -> int:
    p = _params(args)
    if args.h_max <= args.h_min or args.points < 2:
        raise CliError("empty H range", EXIT_USAGE)
    x0 = linlab.StateVec2(args.x0[0], args.x0[1])
    rows = []
    try:
        for h in np.geomspace(args.h_min, args.h_max, args.points):
            row = [h]
            for s in ("total", "parallel", "series"):
                tau = linlab.local_truncation_error(p, x0, h, _SCHEMES[s],
                                                    args.n)
                row.append(float(np.hypot(tau.x_a, tau.x_b)))
            rows.append(row)
    except ValueError as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    path = os.path.join(_out_dir(args.out_dir), args.out)
    _write_table(path, ["h", "tau_total", "tau_parallel", "tau_series"], rows)
    print(path)
    return 0


def cmd_cotds_run(args) -> int:
    if not os.path.exists(args.scenario):
        raise CliError(f"scenario file not found: {args.scenario}",
                       EXIT_USAGE)
    scenario = load_scenario(args.scenario)
    if args.method:
        scenario.method = RunMethod(args.method)
    if args.h is not None:
        if args.h <= 0:
            raise CliError("--h must be positive", EXIT_USAGE)
        scenario.h_macro = args.h
    if args.t_end is not None:
        scenario.t_end = args.t_end
        scenario.events = [ev for ev in scenario.events
                           if ev.time <= scenario.t_end]
    try:
        result = run_scenario(scenario)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    out = _out_dir(args.out_dir)
    os.makedirs(out, exist_ok=True)
    channels = scenario.channels or list(result.log.columns)
    write_csv(os.path.join(out, "run.csv"), result.log, channels)
    summary = os.path.join(out, "summary.txt")
    with open(summary, "w") as fh:
        fh.write(f"scenario: {result.scenario}\n"
                 f"method: {result.method.value}\n"
                 f"h_macro: {result.h_macro:g}\n"
                 f"verdict: {result.verdict.value}\n"
                 f"wall_time_s: {result.wall_time:.3f}\n"
                 f"steps: {len(result.log.times)}\n")
        if result.log.failure:
            fh.write(f"failure: {result.log.failure}\n")
        for owner, counters in result.newton.items():
            for name, n in counters.items():
                fh.write(f"newton.{owner}.{name}: {n}\n")
    print(f"{result.verdict.value} ({summary})")
    if result.log.failure:
        print(f"numeric error: {result.log.failure}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_compare(args) -> int:
    for d in (args.run_a, args.run_b):
        if not os.path.isfile(os.path.join(d, "run.csv")):
            raise CliError(f"no run.csv under {d}", EXIT_USAGE)
    log_a = read_csv(os.path.join(args.run_a, "run.csv"))
    log_b = read_csv(os.path.join(args.run_b, "run.csv"))
    channels = args.channels.split(",") if args.channels else None
    same_grid = (len(log_a.times) == len(log_b.times)
                 and np.allclose(log_a.times, log_b.times))
    if not same_grid and not args.resample:
        raise CliError("time grids differ; pass --resample", EXIT_USAGE)
    try:
        rep = compare_runs(log_a, log_b, channels)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    out = _out_dir(args.out_dir)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "deviations.csv")
    with open(path, "w") as fh:
        fh.write("channel,max_abs,rms\n")
        for ch in rep.channels:
            fh.write("%s,%.12e,%.12e\n" % (ch, rep.max_abs[ch], rep.rms[ch]))
    print(f"worst max-abs deviation: {rep.worst:.6e}")
    for ch in rep.channels:
        print(f"  {ch}: max {rep.max_abs[ch]:.6e} rms {rep.rms[ch]:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cotds")
    sub = top.add_subparsers(dest="group", required=True)

    lin = sub.add_parser("linlab", help="linear test-system analysis")
    lsub = lin.add_subparsers(dest="cmd", required=True)

    sim = lsub.add_parser("simulate")
    _add_param_flags(sim)
    sim.add_argument("--x0", type=float, nargs=2, default=[1.0, 1.0])
    sim.add_argument("--h", type=float, required=True)
    sim.add_argument("--t-end", type=float, default=5.0)
    sim.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
    sim.add_argument("--out", default="trajectory.csv")
    sim.add_argument("--out-dir", default=None)
    sim.set_defaults(func=cmd_linlab_simulate)

    stab = lsub.add_parser("stability")
    _add_param_flags(stab)
    stab.add_argument("--h-min", type=float, default=0.01)
    stab.add_argument("--h-max", type=float, default=1.5)
    stab.add_argument("--points", type=int, default=150)
    stab.add_argument("--schemes", nargs="+", choices=sorted(_SCHEMES),
                      default=["total", "parallel", "series"])
    stab.add_argument("--out", default="stability.csv")
    stab.add_argument("--out-dir", default=None)
    stab.set_defaults(func=cmd_linlab_stability)

    trunc = lsub.add_parser("truncation")
    _add_param_flags(trunc)
    trunc.add_argument("--x0", type=float, nargs=2, default=[1.0, 1.0])
    trunc.add_argument("--h-min", type=float, default=0.01)
    trunc.add_argument("--h-max", type=float, default=0.16)
    trunc.add_argument("--points", type=int, default=5)
    trunc.add_argument("--out", default="truncation.csv")
    trunc.add_argument("--out-dir", default=None)
    trunc.set_defaults(func=cmd_linlab_truncation)

    co = sub.add_parser("cotds", help="combined T-D scenario runs")
    csub = co.add_subparsers(dest="cmd", required=True)
    run = csub.add_parser("run")
    run.add_argument("scenario")
    run.add_argument("--method", choices=[m.value for m in RunMethod],
                     default=None)
    run.add_argument("--h", type=float, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--out-dir", default=None)
    run.set_defaults(func=cmd_cotds_run)

    cmp_ = sub.add_parser("compare", help="deviation report for two runs")
    cmp_.add_argument("run_a")
    cmp_.add_argument("run_b")
    cmp_.add_argument("--channels", default=None,
                      help="comma-separated channel names")
    cmp_.add_argument("--resample", action="store_true")
    cmp_.add_argument("--out-dir", default=None)
    cmp_.set_defaults(func=cmd_compare)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NumericFailure, OverflowError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
