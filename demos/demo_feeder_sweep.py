"""Backward/forward sweep on a radial feeder versus a dense nodal solve.

Builds a small radial feeder with composite (ZIP + induction motor)
loading, solves it with the backward/forward sweep used inside the
distribution sub-systems, and cross-checks every node voltage against a
dense nodal-equation fixed point.
"""

import numpy as np

from cotds.feeder import DistributionFeeder, FeederBranch, MotorUnit
from cotds.loads import (
    InductionMotor,
    InductionMotorParams,
    ZipLoadParams,
    zip_power,
)

OMEGA_S = 2.0 * np.pi * 60.0
V_SOURCE = 0.98 * np.exp(0.1j)

MACHINE = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03,
                               xr=0.12, h_m=0.6, mva_scale=0.25)


def build_feeder():
    branches = [
        FeederBranch(0, 1, 0.02, 0.06),
        FeederBranch(1, 2, 0.03, 0.08),
        FeederBranch(1, 3, 0.025, 0.07),
    ]
    zips = {
        2: ZipLoadParams(p0=0.45, q0=0.18, z_frac=1 / 3, i_frac=1 / 3,
                         p_frac=1 / 3),
        3: ZipLoadParams(p0=0.30, q0=0.12, z_frac=0.2, i_frac=0.3,
                         p_frac=0.5),
    }
    motors = [MotorUnit("demo_im", 3, InductionMotor(MACHINE, OMEGA_S),
                        p_target=0.20, active=True)]
    fd = DistributionFeeder(branches, zips, motors)
    fd.initialize(V_SOURCE)
    return fd


def dense_nodal_solution(fd, v_sub, tol=1e-13):
    """Full nodal solve, substation eliminated, fixed point on loads."""
    n = fd.n_nodes
    y = np.zeros((n, n), dtype=complex)
    for br in fd.branches:
        ybr = 1.0 / br.z
        y[br.parent, br.parent] += ybr
        y[br.child, br.child] += ybr
        y[br.parent, br.child] -= ybr
        y[br.child, br.parent] -= ybr
    v = np.full(n, v_sub, dtype=complex)
    for _ in range(400):
        i = np.zeros(n, dtype=complex)
        for node, zl in fd.zip_loads.items():
            s = zip_power(zl, abs(v[node]))
            i[node] -= np.conj(s / v[node])
        for mu in fd.motors:
            if mu.active:
                s = mu.motor.terminal_power(mu.state[0], v[mu.node])
                i[mu.node] -= np.conj(s / v[mu.node])
        rhs = i[1:] - y[1:, 0] * v_sub
        v_new = np.linalg.solve(y[1:, 1:], rhs)
        delta = np.max(np.abs(v_new - v[1:]))
        v[1:] = v_new
        if delta < tol:
            break
    return v


def main():
    fd = build_feeder()
    fd.sweep(V_SOURCE, tol=1e-12)
    v_dense = dense_nodal_solution(fd, V_SOURCE)
    print("node  |V| sweep     |V| dense     |diff|")
    for k in range(fd.n_nodes):
        print(f"{k:4d}  {abs(fd.v[k]):.9f}  {abs(v_dense[k]):.9f}  "
              f"{abs(fd.v[k] - v_dense[k]):.2e}")
    print(f"max node-voltage discrepancy: "
          f"{np.max(np.abs(fd.v - v_dense)):.3e}")
    s_src = fd.source_power(V_SOURCE)
    print(f"power drawn at the feeder head: "
          f"{s_src.real:.6f} + j{s_src.imag:.6f} pu")
    _, slip = fd.motors[0].state
    print(f"motor slip at equilibrium: {slip:.6f}")


if __name__ == "__main__":
    main()
