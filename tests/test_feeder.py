import math

import numpy as np
import pytest

from cotds.feeder import (
    DistributionFeeder,
    DistributionSubSystem,
    FeederBranch,
    FeederError,
    MotorUnit,
)
from cotds.engine import build_subsystems, iterative_td_powerflow_init
from cotds.loads import InductionMotor, InductionMotorParams, ZipLoadParams
from cotds.scenario_io import fixture_path, load_scenario

OMEGA_S = 2.0 * np.pi * 60.0

MP = InductionMotorParams(rs=0.013, xs=0.05, xm=6.0, rr=0.03, xr=0.12,
                          h_m=0.6, mva_scale=0.25)


def example_feeder(with_motor=True):
    branches = [
        FeederBranch(0, 1, 0.004, 0.012),
        FeederBranch(1, 2, 0.006, 0.018),
        FeederBranch(1, 3, 0.005, 0.015),
        FeederBranch(3, 4, 0.008, 0.020),
    ]
    zips = {
        2: ZipLoadParams(p0=0.30, q0=0.10, z_frac=0.4, i_frac=0.3,
                         p_frac=0.3),
        4: ZipLoadParams(p0=0.25, q0=0.08, z_frac=0.2, i_frac=0.3,
                         p_frac=0.5),
    }
    motors = []
    if with_motor:
        motors = [MotorUnit("m1", 3, InductionMotor(MP, OMEGA_S),
                            p_target=0.20, state=None, active=True)]
    return DistributionFeeder(branches, zips, motors)


def dense_nodal_solution(feeder, v_sub, tol=1e-13):
    """Independent oracle: full Y-matrix nodal solve with the substation
    held at v_sub, iterated on the voltage-dependent injections."""
    n = feeder.n_nodes
    y = np.zeros((n, n), dtype=complex)
    for br in feeder.branches:
        ybr = 1.0 / complex(br.r, br.x)
        y[br.parent, br.parent] += ybr
        y[br.child, br.child] += ybr
        y[br.parent, br.child] -= ybr
        y[br.child, br.parent] -= ybr
    v = np.full(n, v_sub, dtype=complex)
    for _ in range(200):
        i = np.zeros(n, dtype=complex)
        for node, zl in feeder.zip_loads.items():
            from cotds.loads import zip_power
            s = zip_power(zl, abs(v[node]))
            i[node] -= np.conj(s / v[node])
        for mu in feeder.motors:
            if mu.active:
                s = mu.motor.terminal_power(mu.state, v[mu.node])
                i[mu.node] -= np.conj(s / v[mu.node])
        # solve reduced system with node 0 eliminated
        rhs = i[1:] - y[1:, 0] * v_sub
        v_new = np.linalg.solve(y[1:, 1:], rhs)
        delta = np.max(np.abs(v_new - v[1:]))
        v[1:] = v_new
        if delta < tol:
            break
    i_src = y[0, :] @ v - i[0]
    return v, i_src


class TestSweep:
    def test_matches_dense_nodal_solve(self):
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        v_sub = 1.02 * np.exp(1j * 0.05)
        i_src = f.sweep(v_sub, tol=1e-12)
        v_ref, i_ref = dense_nodal_solution(f, v_sub)
        assert np.max(np.abs(f.v - v_ref)) < 1e-8
        assert abs(i_src - i_ref) < 1e-8

    def test_voltage_drops_downstream(self):
        f = example_feeder(with_motor=False)
        f.sweep(1.0 + 0.0j, tol=1e-12)
        assert abs(f.v[2]) < abs(f.v[1]) < abs(f.v[0])

    def test_no_load_means_flat_profile(self):
        f = DistributionFeeder([FeederBranch(0, 1, 0.01, 0.03)])
        i_src = f.sweep(1.0 + 0.0j)
        assert abs(i_src) < 1e-14
        assert np.allclose(f.v, 1.0)

    def test_source_power_covers_losses(self):
        f = example_feeder(with_motor=False)
        v_sub = 1.0 + 0.0j
        s_src = f.source_power(v_sub)
        drawn = 0.0
        from cotds.loads import zip_power
        for node, zl in f.zip_loads.items():
            drawn += zip_power(zl, abs(f.v[node])).real
        assert s_src.real > drawn  # line losses are positive
        assert s_src.real - drawn < 0.01


def initialised_testcase1():
    """testcase1's D sub-systems at the initial T-D power flow."""
    scenario = load_scenario(fixture_path("testcase1"))
    subsystems, dsubs, interface = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface)
    return dsubs


TESTCASE1_MOTORS = [ms.name for fs in
                    load_scenario(fixture_path("testcase1")).feeders
                    for ms in fs.motors]


class TestTestcase1Feeders:
    """The sweep against the dense nodal solve on every testcase1 feeder
    (criterion 10 checks testcase2's), at its initial state and right
    after each motor is connected at standstill."""

    def check(self, sub):
        v_sub = complex(*sub.current_input)
        for fd in sub.feeders:
            i_src = fd.sweep(v_sub, tol=1e-12)
            v_ref, i_ref = dense_nodal_solution(fd, v_sub)
            assert np.max(np.abs(fd.v - v_ref)) < 1e-8
            assert abs(i_src - i_ref) < 1e-8

    def test_initial_state(self):
        dsubs = initialised_testcase1()
        for sub in dsubs.values():
            self.check(sub)

    @pytest.mark.parametrize("name", TESTCASE1_MOTORS)
    def test_after_connect_motor(self, name):
        for sub in initialised_testcase1().values():
            motors = {mu.name: mu for fd in sub.feeders for mu in fd.motors}
            if name in motors:
                sub.switch("connect_motor", {"name": name})
                assert motors[name].state[2] == 1.0  # at standstill
                self.check(sub)


def current_sensitivity(feeder, states, h=1e-6):
    """Largest move of a node's component current per unit move of its
    voltage, in any direction.  A node's current depends on its own
    voltage only, so every node is moved at once."""
    def currents(v):
        return np.array(feeder.node_currents(v.tolist(), states))

    i0 = currents(feeder.v)
    moves = [np.abs(currents(feeder.v + dv) - i0) / h for dv in (h, 1j * h)]
    return float(np.max(moves[0] + moves[1]))


class TestKcl:
    """``kcl`` states the sweep's equations for the monolithic DAE."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_vanishes_at_sweep_fixed_point(self, tol):
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        i_src = f.sweep(1.02 * np.exp(1j * 0.05), tol=tol)
        states = [mu.state for mu in f.motors]
        i_kcl, mismatch = f.kcl(f.v, states)
        # the sweep stops after a voltage update that moved no node by tol;
        # a node's mismatch is its current's change over that update
        assert np.max(np.abs(mismatch)) <= current_sensitivity(f, states) * tol
        # node 0 draws nothing, so only rounding separates the two
        assert abs(i_kcl - i_src) <= 1e-12

    def test_switched_off_feeder_floats(self):
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        f.active = False
        v = f.v.copy()
        v[2] = 0.9
        i_src, mismatch = f.kcl(v, [mu.state for mu in f.motors])
        assert i_src == 0
        assert np.array_equal(mismatch, v[1:] - v[0])


    def test_voltage_past_the_float_range(self):
        # Python's abs of such a complex raises OverflowError, where
        # numpy's gave inf: the mismatch goes non-finite instead
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        v = np.full(f.n_nodes, 1.7e308 * (1 + 1j))
        _, mismatch = f.kcl(v, [mu.state for mu in f.motors])
        assert not np.all(np.isfinite(mismatch))


class TestZeroDivision:
    """Python complex division by zero raises where numpy gave inf; it
    must end as a ``FeederError``, a classified numeric failure."""

    def test_sweep_at_zero_voltage(self):
        f = DistributionFeeder([FeederBranch(0, 1, 0.01, 0.03)],
                               {0: ZipLoadParams(p0=0.1, q0=0.02)})
        with pytest.raises(FeederError, match="zero voltage"):
            f.sweep(0j)

    @pytest.mark.parametrize("node", [2, 3])  # a ZIP load, a motor
    def test_kcl_at_zero_voltage(self, node):
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        v = f.v.copy()
        v[node] = 0.0
        with pytest.raises(FeederError, match="zero voltage"):
            f.kcl(v, [mu.state for mu in f.motors])


class TestInitialize:
    def test_motor_equilibrium_consistent_with_sweep(self):
        f = example_feeder()
        f.initialize(1.01 + 0.0j)
        mu = f.motors[0]
        de, ds = mu.motor.derivatives(complex(mu.state[0], mu.state[1]),
                                      float(mu.state[2]), f.v[mu.node])
        assert np.max(np.abs([de.real, de.imag, ds])) < 1e-9
        s = mu.motor.terminal_power(mu.state, f.v[mu.node])
        assert s.real == pytest.approx(0.20, abs=1e-9)

    def test_infeasible_motor_is_feeder_error(self):
        f = example_feeder()
        f.motors[0].p_target = 50.0  # far beyond the machine's pull-out
        with pytest.raises(FeederError, match=r"motor m1: .* p_target 50 "
                                              r"at \|V\| 1\.01\b"):
            f.initialize(1.01 + 0.0j)

    def test_step_motors_holds_equilibrium(self):
        f = example_feeder()
        f.initialize(1.0 + 0.0j)
        x0 = f.motors[0].state.copy()
        for _ in range(20):
            f.sweep(1.0 + 0.0j)
            f.step_motors(0.005, tol=1e-10)
        assert np.max(np.abs(f.motors[0].state - x0)) < 1e-8


class TestWarmStart:
    """``initialize`` starts from the last profile, scaled to the new
    substation voltage, and lands where a flat start does."""

    def test_second_initialize_takes_one_pass(self, monkeypatch):
        # testcase1's feeders at the T-D fixed point: D6 has one of its
        # two motors switched off
        dsubs = initialised_testcase1()
        calls = []
        equilibrium = MotorUnit.equilibrium

        def counted(self, v):
            calls.append(self.name)
            return equilibrium(self, v)

        monkeypatch.setattr(MotorUnit, "equilibrium", counted)
        for sub in dsubs.values():
            for fd in sub.feeders:
                calls.clear()
                fd.initialize(complex(fd.v[0]))
                assert calls == [mu.name for mu in fd.motors if mu.active]

    def test_warm_start_reaches_the_flat_start_fixed_point(self):
        v_sub = 1.02 * np.exp(1j * 0.05)
        warm = example_feeder()
        warm.initialize(0.95 * np.exp(-1j * 0.1))
        warm.initialize(v_sub)
        flat = example_feeder()
        flat.initialize(v_sub)
        assert np.max(np.abs(warm.v - flat.v)) < 1e-11
        assert np.max(np.abs(warm.motors[0].state
                             - flat.motors[0].state)) < 1e-11

    @pytest.mark.parametrize("v0", [0.0, np.nan, np.inf])
    def test_unusable_profile_starts_flat(self, v0):
        v_sub = 1.01 + 0.0j
        f = example_feeder()
        f.v[0] = v0
        f.initialize(v_sub)
        flat = example_feeder()
        flat.initialize(v_sub)
        assert np.array_equal(f.v, flat.v)
        assert np.array_equal(f.motors[0].state, flat.motors[0].state)


class TestSubSystem:
    def make_sub(self):
        sub = DistributionSubSystem([example_feeder()], rk_tol=1e-6)
        sub.initialize(np.array([1.0, 0.0]))
        return sub

    def test_output_is_total_complex_power(self):
        sub = self.make_sub()
        p, q = sub.output()
        s = sum(f.source_power(1.0 + 0.0j) for f in sub.feeders if f.active)
        assert p == pytest.approx(s.real, abs=1e-12)
        assert q == pytest.approx(s.imag, abs=1e-12)

    def test_equilibrium_output_constant(self):
        sub = self.make_sub()
        p0, q0 = sub.output()
        for _ in range(10):
            sub.set_input(np.array([1.0, 0.0]))
            sub.advance(0.01)
        p1, q1 = sub.output()
        assert abs(p1 - p0) < 1e-8 and abs(q1 - q0) < 1e-8

    def test_disconnect_motor_drops_power(self):
        sub = self.make_sub()
        p0, _ = sub.output()
        sub.switch("disconnect_motor", {"name": "m1"})
        p1, _ = sub.output()
        assert p1 < p0 - 0.15

    def test_connect_motor_draws_inrush(self):
        sub = self.make_sub()
        sub.switch("disconnect_motor", {"name": "m1"})
        _, q_off = sub.output()
        sub.switch("connect_motor", {"name": "m1"})
        _, q_on = sub.output()
        assert q_on > q_off + 0.5  # locked-rotor reactive inrush

    def test_infeasible_motor_connect_is_feeder_error(self):
        sub = self.make_sub()
        sub.switch("disconnect_motor", {"name": "m1"})
        sub.feeders[0].motors[0].p_target = 50.0
        with pytest.raises(FeederError, match="motor m1: .* p_target 50 "):
            sub.switch("connect_motor", {"name": "m1"})

    def test_non_finite_power_ends_the_step(self):
        sub = self.make_sub()
        sub.feeders[0].source_power = lambda v: complex(1.0, math.inf)
        out = sub.output()
        with pytest.raises(OverflowError, match="non-finite"):
            sub.advance(0.01)
        assert np.array_equal(sub.output(), out)

    def test_snapshot_keys(self):
        sub = self.make_sub()
        snap = sub.snapshot()
        assert "m1.slip" in snap
        assert any(k.startswith("f0.v") for k in snap)
        assert np.isfinite(list(snap.values())).all()
