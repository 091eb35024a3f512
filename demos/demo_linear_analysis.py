"""Stability and accuracy study of the linear coupled test system.

Sweeps the macro step H for the two co-simulation schedules and the
monolithic trapezoidal reference, locates the stability thresholds, and
tabulates the local truncation error.  Writes CSV tables next to this
script.
"""

import os

import numpy as np

from cotds import linlab

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

P_STIFF = linlab.LinearCoupledParams(-1.0, -10.0, 2.0, 2.0)
P_MILD = linlab.LinearCoupledParams(-1.0, -2.0, 2.0, 2.0)


def write(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12e" % v for v in row) + "\n")
    print("wrote", path)


def stability_table(p, tag):
    grid = np.linspace(0.01, 1.5, 300)
    rows = []
    for h in grid:
        cfg = linlab.StepConfig(h_macro=h, n_micro=100)
        rows.append((h, *(
            linlab.spectral_radius(linlab.build_step_matrix(p, cfg, scheme))
            for scheme in linlab.SchemeId)))
    write(os.path.join(OUT, f"stability_{tag}.csv"),
          ["h", "rho_total", "rho_parallel", "rho_series"], rows)

    for scheme, name in ((linlab.SchemeId.COSIM_PARALLEL, "parallel"),
                         (linlab.SchemeId.COSIM_SERIES, "series")):
        hstar = linlab.find_stability_threshold(p, scheme, 100)
        print(f"  {tag}: H*({name}) = {hstar:.4f}")


def truncation_table(p, tag):
    x0 = linlab.StateVec2(1.0, 1.0)
    rows = []
    for h in np.geomspace(0.005, 0.16, 6):
        row = [h]
        for s in (linlab.SchemeId.TOTAL_TRAPEZOIDAL,
                  linlab.SchemeId.COSIM_PARALLEL,
                  linlab.SchemeId.COSIM_SERIES):
            tau = linlab.local_truncation_error(p, x0, h, s, 100)
            row.append(float(np.hypot(tau.x_a, tau.x_b)))
        rows.append(row)
    write(os.path.join(OUT, f"truncation_{tag}.csv"),
          ["h", "tau_total", "tau_parallel", "tau_series"], rows)
    rows = np.asarray(rows)
    for k, name in ((1, "total"), (2, "parallel"), (3, "series")):
        slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, k]), 1)[0]
        print(f"  {tag}: truncation slope ({name}) = {slope:.3f}")


def main():
    for p, tag in ((P_STIFF, "stiff"), (P_MILD, "mild")):
        print(f"parameter set {tag}: lambda_a={p.lambda_a}, "
              f"lambda_b={p.lambda_b}, k={p.k_a}")
        stability_table(p, tag)
        truncation_table(p, tag)


if __name__ == "__main__":
    main()
