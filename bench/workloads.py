"""The benchmark's workloads: their units of work, set-up and output checks.

A unit is one scenario run, one ``testcase2`` H sweep or one linlab study.
Its parts are the calls that are timed, one by one: the runs of a sweep,
or the one call of any other unit.  A round is a fixed list of units
whose order (and, for linlab, whose parameter draws) comes from
``(seed, round index)``, so the same seed gives the same inputs.  Every
unit's output is checked after its timed region.
"""

from __future__ import annotations

import functools
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cotds import cli, engine, linlab, scenario_io
from cotds.engine import RunMethod
from cotds.scenario_io import fixture_path

__all__ = ["WORKLOADS", "TD_SPECS", "Unit", "Workload", "CheckFailure",
           "td_key", "scenario_unit", "reference", "SETUP_REPS",
           "BENCH_DIR", "OUT_DIR"]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(BENCH_DIR), ".bench_out")
REFERENCE_JSON = os.path.join(BENCH_DIR, "reference", "td.json")
REFERENCE_NPZ = os.path.join(BENCH_DIR, "reference", "td.npz")

# Newton residual tolerance of the solvers at the reference commit; the
# trajectory tolerance is the looser of this and the scenario's rk_tol.
NEWTON_TOL = 1e-8
# timed set-ups before the rounds, and again after them
SETUP_REPS = 10

# (scenario, method, H) of every T-D unit, per workload
TD_SPECS = {
    "tc1-cosim": [("testcase1", m, 0.006) for m in ("series", "parallel")],
    "tc1-mono": [("testcase1", "monolithic", 0.006)],
    "tc2-hsweep": [("testcase2", m, h) for m in ("series", "parallel")
                   for h in (0.006, 0.012, 0.024, 0.037)],
}


class CheckFailure(Exception):
    """A unit's output disagrees with its reference or invariant."""


@dataclass
class Unit:
    label: str
    steps: int                       # work the unit completes when correct
    parts: list[Callable[[], object]]  # the timed calls
    check: Callable[[list], float]   # part outputs -> deviation; may raise
                                     # CheckFailure


@dataclass
class Workload:
    round: Callable[[int, int], list[Unit]]   # (seed, round index) -> units
    setup: Callable[[int], Callable[[], object]]  # seed -> one timed set-up


def td_key(scenario: str, method: str, h: float) -> str:
    return f"{scenario}.{method}.{h:g}"


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# -- T-D scenario runs --------------------------------------------------------


class _Reference:
    """Channels and verdicts of every T-D unit, recorded at the seed commit."""

    def __init__(self):
        with open(REFERENCE_JSON) as fh:
            self.meta = json.load(fh)
        with np.load(REFERENCE_NPZ) as npz:
            self.data = {k: npz[k] for k in npz.files}

    def compare(self, key: str, times, columns: dict) -> float:
        """Worst abs deviation of the channels; raises beyond tolerance."""
        meta, ref = self.meta["runs"][key], self.data[key]
        times = np.asarray(times, dtype=float)
        if times.shape != ref[:, 0].shape:
            raise CheckFailure(f"{key}: {times.size} records, "
                               f"reference has {ref.shape[0]}")
        if np.max(np.abs(times - ref[:, 0])) > 1e-9:
            raise CheckFailure(f"{key}: time grid differs from reference")
        dev = 0.0
        for j, ch in enumerate(meta["channels"], start=1):
            if ch not in columns:
                raise CheckFailure(f"{key}: channel {ch} missing")
            d = np.max(np.abs(np.asarray(columns[ch], dtype=float) - ref[:, j]))
            dev = max(dev, float(d))   # NaN compares False: caught below
            if not d <= meta["tolerance"]:
                raise CheckFailure(f"{key}: {ch} deviates by {d:.3e} "
                                   f"> {meta['tolerance']:.1e}")
        return dev

    def verdict(self, key: str) -> str:
        return self.meta["runs"][key]["verdict"]


@functools.cache
def reference() -> _Reference:
    return _Reference()


def _steps(h: float, scenario: str) -> int:
    t_end = reference().meta["t_end"][scenario]
    return int(round(t_end / h))


def scenario_unit(scenario: str, method: str, h: float) -> Unit:
    key = td_key(scenario, method, h)

    def run():
        s = scenario_io.load_scenario(fixture_path(scenario))
        s.method = RunMethod(method)
        s.h_macro = h
        return engine.run_scenario(s)

    def check(outputs) -> float:
        (result,) = outputs
        log = result.log
        if log.failure or log.diverged:
            raise CheckFailure(f"{key}: run failed: {log.failure}")
        if result.verdict.value != reference().verdict(key):
            raise CheckFailure(f"{key}: verdict {result.verdict.value}")
        cols = {c: log.channel(c) for c in reference().meta["runs"][key]
                ["channels"] if c in log.columns}
        return reference().compare(key, log.times, cols)

    return Unit(key, _steps(h, scenario), [run], check)


def _cli_unit(scenario: str, method: str, h: float) -> Unit:
    """One run through ``cotds cotds run``, the production path."""
    key = td_key(scenario, method, h)

    def run():
        os.makedirs(OUT_DIR, exist_ok=True)
        out = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(["cotds", "run", fixture_path(scenario),
                                 "--method", method, "--h", repr(h),
                                 "--out-dir", out])
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return code, out

    def check(outputs) -> float:
        ((code, out),) = outputs
        try:
            if code != 0:
                raise CheckFailure(f"{key}: cli exit code {code}")
            with open(os.path.join(out, "summary.txt")) as fh:
                summary = dict(line.split(": ", 1)
                               for line in fh.read().splitlines())
            if "failure" in summary:
                raise CheckFailure(f"{key}: {summary['failure']}")
            if summary.get("verdict") != reference().verdict(key):
                raise CheckFailure(f"{key}: verdict {summary.get('verdict')}")
            path = os.path.join(out, "run.csv")
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            cols = {c: data[:, j] for j, c in enumerate(header) if j}
            return reference().compare(key, data[:, 0], cols)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Unit(key, _steps(h, scenario), [run], check)


def _td_round(specs, make_unit):
    def round_(seed: int, k: int) -> list[Unit]:
        units = [make_unit(*spec) for spec in specs]
        order = _rng(seed, k).permutation(len(units))
        return [units[i] for i in order]
    return round_


def _sweep_round(specs):
    """One unit: every (method, H) run of the sweep, in seeded order.

    Its runs differ in cost by 4x, so a median over single runs would
    sit between two of them and follow their noise alone.
    """
    def round_(seed: int, k: int) -> list[Unit]:
        runs = _td_round(specs, scenario_unit)(seed, k)

        def check(results) -> float:
            return max(u.check([r]) for u, r in zip(runs, results))

        return [Unit(f"sweep.{k}", sum(u.steps for u in runs),
                     [p for u in runs for p in u.parts], check)]
    return round_


def _td_setup(scenario: str) -> Callable[[int], Callable[[], object]]:
    """Load, build and initialise a scenario, each called directly."""
    def setup():
        s = scenario_io.load_scenario(fixture_path(scenario))
        subsystems, _, buses = engine.build_subsystems(s)
        dsubs = {k: v for k, v in subsystems.items() if k != "T"}
        engine.iterative_td_powerflow_init(subsystems["T"], dsubs, buses)
    return lambda seed: setup


# -- linear test system ------------------------------------------------------

SCHEMES = list(linlab.SchemeId)
N_MICRO = 100
H_MAX = 20.0
SWEEP_GRID = np.linspace(0.01, 2.0, 200)
TRUNC_GRID = np.geomspace(0.005, 0.16, 6)
SIM_STEPS = 200
X0 = linlab.StateVec2(1.0, 1.0)
DRAWS_PER_ROUND = 30
LINLAB_STEPS = len(SCHEMES) * (SWEEP_GRID.size + TRUNC_GRID.size + SIM_STEPS)


def _draws(seed: int, k: int) -> list[tuple[float, float, float, float]]:
    """(lambda_a, lambda_b, k_a, k_b): decay rates and coupling gains.

    A Latin hypercube over [0.5, 5]^4: each parameter takes one value in
    each of DRAWS_PER_ROUND equal strata, so every round covers the box
    evenly and its cost (threshold scans run longer on weakly coupled
    draws) varies less from seed to seed than with independent draws.
    """
    rng = _rng(seed, k)
    strata = np.array([rng.permutation(DRAWS_PER_ROUND) for _ in range(4)]).T
    u = (strata + rng.uniform(size=strata.shape)) / DRAWS_PER_ROUND
    return [(-la, -lb, ka, kb) for la, lb, ka, kb in 0.5 + 4.5 * u]


def _study(p: linlab.LinearCoupledParams):
    thr = {s: linlab.find_stability_threshold(p, s, N_MICRO, h_max=H_MAX)
           for s in SCHEMES}
    sweep = {s: linlab.stability_sweep(p, s, N_MICRO, SWEEP_GRID)
             for s in SCHEMES}
    trunc = {s: [linlab.local_truncation_error(p, X0, h, s, N_MICRO)
                 for h in TRUNC_GRID] for s in SCHEMES}
    # simulate below both co-simulation thresholds, so no run diverges
    h_sim = 0.5 * min(thr[linlab.SchemeId.COSIM_PARALLEL],
                      thr[linlab.SchemeId.COSIM_SERIES])
    sims = {s: linlab.simulate_linear(p, X0, h_sim, N_MICRO,
                                      SIM_STEPS * h_sim, s) for s in SCHEMES}
    return thr, sweep, trunc, h_sim, sims


def _radii(p, hs, s) -> np.ndarray:
    """Spectral radii from numpy eigenvalues of the step matrices."""
    ms = np.array([linlab.build_step_matrix(
        p, linlab.StepConfig(float(h), N_MICRO), s) for h in hs])
    return np.max(np.abs(np.linalg.eigvals(ms)), axis=1)


def _check_study(p, key, out) -> float:
    """Cross-checks: eigenvalues vs closed-form radius, threshold bracket,
    stepper vs step matrix.  Returns the worst stepper deviation."""
    thr, sweep, trunc, h_sim, sims = out
    for s in SCHEMES:
        h = thr[s]
        if h >= H_MAX:
            if _radii(p, [H_MAX], s)[0] >= 1.0:
                raise CheckFailure(f"{key}: {s.value} unstable at h_max")
        else:
            below, above = _radii(p, [h * (1 - 1e-6), h * (1 + 1e-6)], s)
            if not below < 1.0 <= above:
                raise CheckFailure(f"{key}: {s.value} threshold {h} "
                                   "is not a crossing")
        hs, rho = np.array(sweep[s]).T
        if not np.array_equal(hs, SWEEP_GRID):
            raise CheckFailure(f"{key}: {s.value} sweep grid changed")
        if np.max(np.abs(rho - _radii(p, hs, s)) / np.maximum(1.0, rho)) > 1e-9:
            raise CheckFailure(f"{key}: {s.value} sweep radii disagree")
        x0 = X0.as_array()
        for h, tau in zip(TRUNC_GRID, trunc[s]):
            m = linlab.build_step_matrix(p, linlab.StepConfig(h, N_MICRO), s)
            exact = linlab.analytic_solution(p, X0, float(h)).as_array()
            want = (exact - m @ x0) / h
            if np.max(np.abs(np.array([tau.x_a, tau.x_b]) - want)) > 1e-9:
                raise CheckFailure(f"{key}: {s.value} truncation at H={h}")
    dev = 0.0
    for s in SCHEMES:
        traj = sims[s]
        if traj.diverged or len(traj.times) != SIM_STEPS + 1:
            raise CheckFailure(f"{key}: {s.value} simulation truncated")
        m = linlab.build_step_matrix(p, linlab.StepConfig(h_sim, N_MICRO), s)
        d = float(np.max(np.abs(traj.states[1:] - traj.states[:-1] @ m.T)))
        if not d <= 1e-9:
            raise CheckFailure(f"{key}: {s.value} stepper vs matrix {d:.3e}")
        dev = max(dev, d)
    return dev


def _linlab_unit(k: int, i: int, draw) -> Unit:
    key = f"linlab.{k}.{i}"
    p = linlab.LinearCoupledParams(*draw)
    return Unit(key, LINLAB_STEPS, [lambda: _study(p)],
                lambda outputs: _check_study(p, key, outputs[0]))


def _linlab_round(seed: int, k: int) -> list[Unit]:
    return [_linlab_unit(k, i, d) for i, d in enumerate(_draws(seed, k))]


def _linlab_setup(seed: int) -> Callable[[], object]:
    """Build and validate the parameter sets of 50 rounds of draws."""
    draws = [d for k in range(50) for d in _draws(seed, k)]
    return lambda: [linlab.LinearCoupledParams(*d) for d in draws]


WORKLOADS = {
    "tc1-cosim": Workload(_td_round(TD_SPECS["tc1-cosim"], _cli_unit),
                          _td_setup("testcase1")),
    "tc1-mono": Workload(_td_round(TD_SPECS["tc1-mono"], scenario_unit),
                         _td_setup("testcase1")),
    "tc2-hsweep": Workload(_sweep_round(TD_SPECS["tc2-hsweep"]),
                           _td_setup("testcase2")),
    "linlab-map": Workload(_linlab_round, _linlab_setup),
}
