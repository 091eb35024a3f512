"""Run the bundled motor-switching scenario under all three methods.

Executes the series and parallel co-simulation schedules plus the
monolithic reference on the first bundled test case, prints the
convergence verdict for each, and reports the worst bus-voltage
deviation between the schedules and the reference.
"""

import dataclasses
import os

from cotds.engine import RunMethod, compare_runs, run_scenario
from cotds.scenario_io import fixture_path, load_scenario, write_csv

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    scenario = load_scenario(fixture_path("testcase1"))
    results = {}
    for method in (RunMethod.MONOLITHIC, RunMethod.SERIES,
                   RunMethod.PARALLEL):
        s = dataclasses.replace(scenario, method=method)
        res = run_scenario(s)
        results[method] = res
        print(f"{method.value:>10s}: verdict={res.verdict.value:<12s} "
              f"steps={len(res.log.times):5d}  wall={res.wall_time:6.2f} s")

    ref = results[RunMethod.MONOLITHIC]
    vbus = [c for c in ref.log.columns if c.endswith(".vmag")]
    for method in (RunMethod.SERIES, RunMethod.PARALLEL):
        dev = compare_runs(results[method].log, ref.log, channels=vbus)
        worst_ch = max(dev.max_abs, key=dev.max_abs.get)
        print(f"{method.value:>10s} vs monolithic: worst bus-voltage "
              f"deviation = {dev.worst:.3e} pu on {worst_ch}")

    os.makedirs(OUT, exist_ok=True)
    for method, res in results.items():
        path = os.path.join(OUT, f"testcase1_{method.value}.csv")
        write_csv(path, res.log)
        print("wrote", path)


if __name__ == "__main__":
    main()
