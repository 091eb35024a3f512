"""Record the reference trajectories that the benchmark checks runs against.

    python3 bench/make_reference.py

Runs every T-D unit of the benchmark in-process at the current commit and
writes ``bench/reference/td.npz`` (time plus the scenario's output
channels per unit) and ``bench/reference/td.json`` (channel names,
verdict and tolerance per unit).  Regenerate only when a change is meant
to alter trajectories, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.bootstrap()
    import numpy as np

    from cotds import engine, scenario_io
    from cotds.engine import RunMethod
    from harness import environment
    from workloads import (NEWTON_TOL, REFERENCE_JSON, REFERENCE_NPZ,
                           TD_SPECS, td_key)

    meta = {"source": {k: v for k, v in environment().items()
                       if k in ("commit", "source_sha256")},
            "t_end": {}, "runs": {}}
    arrays = {}
    for specs in TD_SPECS.values():
        for scenario, method, h in specs:
            key = td_key(scenario, method, h)
            s = scenario_io.load_scenario(scenario_io.fixture_path(scenario))
            s.method, s.h_macro = RunMethod(method), h
            result = engine.run_scenario(s)
            if result.log.failure or result.log.diverged:
                raise SystemExit(f"{key}: run failed: {result.log.failure}")
            log = result.log
            arrays[key] = np.column_stack(
                [log.time_array] + [log.channel(c) for c in s.channels])
            meta["t_end"][scenario] = s.t_end
            meta["runs"][key] = {
                "channels": list(s.channels),
                "verdict": result.verdict.value,
                "tolerance": max(NEWTON_TOL, s.rk_tol),
            }
            print(f"{key}: {result.verdict.value}, {len(log.times)} records, "
                  f"{result.wall_time:.2f} s", flush=True)
    os.makedirs(os.path.dirname(REFERENCE_NPZ), exist_ok=True)
    np.savez_compressed(REFERENCE_NPZ, **arrays)
    with open(REFERENCE_JSON, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
