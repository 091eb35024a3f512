"""Command-line front end.

Subcommands:

    cotds linlab simulate    trajectory CSV for the linear test system
    cotds linlab stability   (H, spectral radius) sweep CSV per scheme
    cotds linlab truncation  local truncation error vs H CSV
    cotds cotds run          execute a scenario file, emit CSVs + summary
    cotds compare            deviation report between two run directories

Exit codes: 0 success, 1 usage error, 2 schema/validation error,
3 numeric failure, including a run cut short (its files are still
written).  A ``ValueError`` is a usage error only before a run starts;
one raised during the run is a bug and propagates.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import linlab
from .cosim import CouplingSchedule
from .engine import RunMethod, check_scenario, compare_runs, run_scenario
from .integrators import NumericFailure
from .scenario_io import (SchemaError, load_scenario, read_csv, write_csv,
                          write_table)

EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3

_SCHEME_NAMES = sorted(s.value for s in linlab.SchemeId)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _params(args) -> linlab.LinearCoupledParams:
    try:
        return linlab.LinearCoupledParams(
            lambda_a=args.lambda_a, lambda_b=args.lambda_b,
            k_a=args.ka, k_b=args.kb)
    except ValueError as exc:
        raise CliError(f"invalid parameters: {exc}", EXIT_USAGE)


def _check_h_range(args, min_points: int) -> None:
    """The --h-min/--h-max/--points range and --n, checked by building
    the step configurations at both ends of the range."""
    try:
        for h in (args.h_min, args.h_max):
            linlab.StepConfig(h, args.n)
    except ValueError as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    if args.h_max <= args.h_min or args.points < min_points:
        raise CliError("empty H range", EXIT_USAGE)


def _add_param_flags(p):
    p.add_argument("--lambda-a", type=float, required=True)
    p.add_argument("--lambda-b", type=float, required=True)
    p.add_argument("--ka", type=float, required=True)
    p.add_argument("--kb", type=float, required=True)
    p.add_argument("--n", type=int, default=100,
                   help="micro steps per macro step")


def cmd_linlab_simulate(args) -> int:
    p = _params(args)
    try:
        x0 = linlab.StateVec2(args.x0[0], args.x0[1])
        linlab.StepConfig(args.h, args.n)
        CouplingSchedule(args.h, args.t_end)
    except ValueError as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    traj = linlab.simulate_linear(p, x0, args.h, args.n, args.t_end,
                                  linlab.SchemeId(args.scheme))
    rows = []
    for t, st in zip(traj.times, traj.states):
        ref = linlab.analytic_solution(p, x0, float(t))
        rows.append((float(t), st[0], st[1], ref.x_a, ref.x_b))
    path = os.path.join(args.out_dir, args.out)
    write_table(path, ["t", "x_a", "x_b", "x_a_exact", "x_b_exact"], rows)
    print(path)
    if traj.diverged:
        when = f"after t={traj.times[-1]:.6g}" if rows else "at t=0"
        print(f"numeric error: trajectory diverged {when}; "
              f"wrote {len(rows)} rows", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_linlab_stability(args) -> int:
    p = _params(args)
    _check_h_range(args, min_points=1)
    grid = np.linspace(args.h_min, args.h_max, args.points)
    sweeps = [linlab.stability_sweep(p, linlab.SchemeId(s), args.n, grid)
              for s in args.schemes]
    rhos = [[rho for _, rho in sweep] for sweep in sweeps]
    rows = np.column_stack([grid, *rhos, np.ones_like(grid)])  # rho = 1 line
    header = ["h"] + [f"rho_{name}" for name in args.schemes] + ["rho_one"]
    path = os.path.join(args.out_dir, args.out)
    write_table(path, header, rows)
    print(path)
    return 0


def cmd_linlab_truncation(args) -> int:
    p = _params(args)
    _check_h_range(args, min_points=2)
    try:
        x0 = linlab.StateVec2(args.x0[0], args.x0[1])
    except ValueError as exc:
        raise CliError(f"invalid arguments: {exc}", EXIT_USAGE)
    rows = []
    for h in np.geomspace(args.h_min, args.h_max, args.points):
        row = [h]
        for s in linlab.SchemeId:
            tau = linlab.local_truncation_error(p, x0, h, s, args.n)
            row.append(float(np.hypot(tau.x_a, tau.x_b)))
        rows.append(row)
    path = os.path.join(args.out_dir, args.out)
    write_table(path, ["h"] + [f"tau_{s.value}" for s in linlab.SchemeId],
                rows)
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
        scenario.h_macro = args.h
    try:
        events = scenario.events
        if args.t_end is not None:
            # the shortened run keeps the events that a step follows
            scenario.t_end, scenario.events = args.t_end, []
        schedule, _ = check_scenario(scenario)
        scenario.events = [ev for ev in events if schedule.applies(ev)]
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    result = run_scenario(scenario)
    write_csv(os.path.join(args.out_dir, "run.csv"), result.log,
              scenario.channels)
    summary = os.path.join(args.out_dir, "summary.txt")
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
    log_a, log_b = (read_csv(os.path.join(d, "run.csv"))
                    for d in (args.run_a, args.run_b))
    for d, log in ((args.run_a, log_a), (args.run_b, log_b)):
        if not log.times:
            raise CliError(f"the run under {d} has no records", EXIT_USAGE)
    channels = args.channels.split(",") if args.channels else None
    same_grid = (len(log_a.times) == len(log_b.times)
                 and np.allclose(log_a.times, log_b.times))
    if not same_grid and not args.resample:
        raise CliError("time grids differ; pass --resample", EXIT_USAGE)
    try:
        rep = compare_runs(log_a, log_b, channels)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    os.makedirs(os.path.abspath(args.out_dir), exist_ok=True)  # "" is "."
    path = os.path.join(args.out_dir, "deviations.csv")
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
    sim.add_argument("--scheme", choices=_SCHEME_NAMES, required=True)
    sim.add_argument("--out", default="trajectory.csv")
    sim.add_argument("--out-dir", default=".")
    sim.set_defaults(func=cmd_linlab_simulate)

    stab = lsub.add_parser("stability")
    _add_param_flags(stab)
    stab.add_argument("--h-min", type=float, default=0.01)
    stab.add_argument("--h-max", type=float, default=1.5)
    stab.add_argument("--points", type=int, default=150)
    stab.add_argument("--schemes", nargs="+", choices=_SCHEME_NAMES,
                      default=["total", "parallel", "series"])
    stab.add_argument("--out", default="stability.csv")
    stab.add_argument("--out-dir", default=".")
    stab.set_defaults(func=cmd_linlab_stability)

    trunc = lsub.add_parser("truncation")
    _add_param_flags(trunc)
    trunc.add_argument("--x0", type=float, nargs=2, default=[1.0, 1.0])
    trunc.add_argument("--h-min", type=float, default=0.01)
    trunc.add_argument("--h-max", type=float, default=0.16)
    trunc.add_argument("--points", type=int, default=5)
    trunc.add_argument("--out", default="truncation.csv")
    trunc.add_argument("--out-dir", default=".")
    trunc.set_defaults(func=cmd_linlab_truncation)

    co = sub.add_parser("cotds", help="combined T-D scenario runs")
    csub = co.add_subparsers(dest="cmd", required=True)
    run = csub.add_parser("run")
    run.add_argument("scenario")
    run.add_argument("--method", choices=[m.value for m in RunMethod],
                     default=None)
    run.add_argument("--h", type=float, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--out-dir", default=".")
    run.set_defaults(func=cmd_cotds_run)

    cmp_ = sub.add_parser("compare", help="deviation report for two runs")
    cmp_.add_argument("run_a")
    cmp_.add_argument("run_b")
    cmp_.add_argument("--channels", default=None,
                      help="comma-separated channel names")
    cmp_.add_argument("--resample", action="store_true")
    cmp_.add_argument("--out-dir", default=".")
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
    except (NumericFailure, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
