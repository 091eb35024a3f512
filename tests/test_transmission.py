import numpy as np
import pytest

from cotds.integrators import NewtonError
from cotds.loads import ZipLoadParams, zip_power
from cotds.machines import N_GEN_STATES, GeneratorBank
from cotds import transmission
from cotds.power_network import load_network, newton_power_flow
from cotds.transmission import TransmissionDae, TransmissionSubSystem


def make_sub(interface=(5,), zip_loads=True, network="wscc9"):
    net = load_network(network)
    bank = GeneratorBank.from_params(net.gen_params, net.omega_s)
    statics = {}
    for bus, s in net.loads.items():
        if bus in interface:
            continue
        if zip_loads:
            statics[bus] = ZipLoadParams(p0=s.real, q0=s.imag, z_frac=0.4,
                                         i_frac=0.3, p_frac=0.3)
        else:
            statics[bus] = ZipLoadParams(p0=s.real, q0=s.imag, z_frac=0.0,
                                         i_frac=0.0, p_frac=1.0)
    dae = TransmissionDae(net, bank, statics, list(interface))
    sub = TransmissionSubSystem(dae)
    sub.initialize(np.array([part for bus in interface
                             for part in (net.loads[bus].real,
                                          net.loads[bus].imag)]))
    return net, dae, sub


def bus_voltages(dae, y):
    """The complex bus voltages of the DAE's algebraic vector."""
    n = dae.net.n_bus
    return y[:n] + 1j * y[n:]


class TestInitialize:
    def test_algebraic_residual_vanishes(self):
        _, dae, sub = make_sub()
        r = dae.g(sub.x, sub.y, sub.current_input)
        assert np.max(np.abs(r)) < 1e-10

    def test_differential_residual_vanishes(self):
        _, dae, sub = make_sub()
        assert np.max(np.abs(dae.f(sub.x, sub.y))) < 1e-9

    def test_constant_power_matches_base_power_flow(self):
        # With pure constant-P statics the init must land on the stock
        # power-flow solution.
        net, dae, sub = make_sub(zip_loads=False)
        pf = newton_power_flow(net)
        v = bus_voltages(dae, sub.y)
        assert np.max(np.abs(v - pf.v)) < 1e-9

    def test_one_power_flow_with_zip_loads(self, monkeypatch):
        # the ZIP statics go into the power flow itself, next to the
        # interface power as a constant-power load: one solve
        calls = []

        def counted(net, loads, zip_loads, **warm):
            calls.append((dict(loads), dict(zip_loads)))
            return newton_power_flow(net, loads, zip_loads, **warm)

        monkeypatch.setattr(transmission, "newton_power_flow", counted)
        net, dae, _ = make_sub()
        assert calls == [({5: net.loads[5]}, dae.static_loads)]

    def test_output_is_interface_voltage(self):
        net, dae, sub = make_sub()
        v = bus_voltages(dae, sub.y)
        i = net.idx(5)
        assert sub.output() == pytest.approx([v[i].real, v[i].imag])


class TestAdvance:
    def test_holds_equilibrium(self):
        _, dae, sub = make_sub()
        y0 = sub.y.copy()
        x0 = sub.x.copy()
        for _ in range(50):
            sub.advance(0.01)
        assert np.max(np.abs(sub.y - y0)) < 1e-8
        assert np.max(np.abs(sub.x - x0)) < 1e-8

    def test_load_step_drops_voltage(self):
        net, dae, sub = make_sub()
        u = sub.current_input.copy()
        v0 = abs(bus_voltages(dae, sub.y)[net.idx(5)])
        u[1] += 0.5  # extra reactive draw at the interface bus
        sub.set_input(u)
        sub.advance(0.01)
        v1 = abs(bus_voltages(dae, sub.y)[net.idx(5)])
        assert v1 < v0 - 0.01

    def test_exciter_restores_voltage(self):
        net, dae, sub = make_sub()
        u = sub.current_input.copy()
        v0 = abs(bus_voltages(dae, sub.y)[net.idx(5)])
        u[0] += 0.2
        sub.set_input(u)
        for _ in range(400):
            sub.advance(0.01)
        v1 = abs(bus_voltages(dae, sub.y)[net.idx(5)])
        # AVRs recover most of the voltage depression caused by the step
        assert abs(v1 - v0) < 0.01

    def test_snapshot_channels(self):
        _, dae, sub = make_sub()
        snap = sub.snapshot()
        assert "gen1.delta" in snap and "bus5.vmag" in snap
        assert np.isfinite(list(snap.values())).all()

    def test_diverging_input_raises_newton_error(self):
        _, dae, sub = make_sub()
        sub.set_input(np.array([80.0, 40.0]))
        with pytest.raises(NewtonError, match="did not converge"):
            for _ in range(10):
                sub.advance(0.05)


# -- the scalar kernel against the vectorized one it replaced ---------------
#
# The oracle is the numpy implementation of GeneratorBank.derivatives,
# GeneratorBank.injected_current and TransmissionDae.g that the Python-scalar
# kernel replaced, kept here verbatim in its arithmetic.  Both evaluate every
# expression in the same order; they differ only in rounding, where math.sin
# and math.cos stand in for numpy's and Python's complex division for
# numpy's, each a few ulps of the largest term.  1e-12 of the largest entry
# leaves three orders of magnitude over that.

KERNEL_RTOL = 1e-12


def oracle_stator(bank, b, v_bus):
    eq_p, ed_p, delta = b[:, 0], b[:, 1], b[:, 2]
    sd, cd = np.sin(delta), np.cos(delta)
    vd = v_bus.real * sd - v_bus.imag * cd
    vq = v_bus.real * cd + v_bus.imag * sd
    i_d = (eq_p - vq) / bank.xd_p
    i_q = (vd - ed_p) / bank.xq_p
    return sd, cd, i_d, i_q


def oracle_injected_current(bank, x, v_bus):
    sd, cd, i_d, i_q = oracle_stator(bank, x.reshape(-1, N_GEN_STATES), v_bus)
    return (i_d * sd + i_q * cd) + 1j * (i_q * sd - i_d * cd)


def oracle_derivatives(bank, x, v_bus):
    b = x.reshape(-1, N_GEN_STATES)
    eq_p, ed_p, domega = b[:, 0], b[:, 1], b[:, 3]
    efd, pm = b[:, 4], b[:, 5]
    _, _, i_d, i_q = oracle_stator(bank, b, v_bus)
    pe = ed_p * i_d + eq_p * i_q + (bank.xq_p - bank.xd_p) * i_d * i_q
    vmag = np.abs(v_bus)
    out = np.empty_like(b)
    out[:, 0] = (-eq_p - (bank.xd - bank.xd_p) * i_d + efd) / bank.td0_p
    out[:, 1] = (-ed_p + (bank.xq - bank.xq_p) * i_q) / bank.tq0_p
    out[:, 2] = bank.omega_s * domega
    out[:, 3] = (pm - pe - bank.d * domega) / (2.0 * bank.h)
    out[:, 4] = (-efd + bank.ke * (bank.vref - vmag)) / bank.te
    out[:, 5] = (-pm + bank.pref - domega / bank.droop) / bank.tg
    return out.ravel()


def oracle_f(dae, x, y):
    gen = [dae.net.idx(b) for b in dae.net.gen_buses]
    return oracle_derivatives(dae.bank, x, bus_voltages(dae, y)[gen])


def oracle_g(dae, x, y, u):
    net = dae.net
    u = np.asarray(u, dtype=float)
    v = bus_voltages(dae, y)
    gen = [net.idx(b) for b in net.gen_buses]
    if_idx = np.array([net.idx(b) for b in dae.interface_buses], dtype=int)
    i_inj = np.zeros(net.n_bus, dtype=complex)
    i_inj[gen] += oracle_injected_current(dae.bank, x, v[gen])
    for bus, zl in dae.static_loads.items():
        k = net.idx(bus)
        s = zip_power(zl, abs(v[k]))
        i_inj[k] -= np.conj(s / v[k])
    if if_idx.size:
        s_if = u[0::2] + 1j * u[1::2]
        i_inj[if_idx] -= np.conj(s_if / v[if_idx])
    mis = net.ybus @ v - i_inj
    return np.concatenate([mis.real, mis.imag])


def assert_matches_oracle(new, old):
    """Equal non-finite positions; finite entries within KERNEL_RTOL."""
    ok = np.isfinite(old)
    assert np.array_equal(np.isfinite(new), ok)
    scale = np.max(np.abs(old[ok]), initial=0.0)
    assert np.max(np.abs(new[ok] - old[ok]), initial=0.0) <= KERNEL_RTOL * scale


def off_equilibrium(sub, rng):
    """(x, y, u): the sub-system's state and input, each entry perturbed."""
    x = sub.x * (1.0 + 0.05 * rng.standard_normal(sub.x.size))
    x += 0.02 * rng.standard_normal(sub.x.size)
    y = sub.y + 0.05 * rng.standard_normal(sub.y.size)
    u = np.asarray(sub.current_input) * (1.0 + 0.1 * rng.standard_normal(
        len(sub.current_input)))
    return x, y, u


KERNEL_CASES = {
    # ZIP statics at buses 6 and 8, the interface drawing bus 5's load
    "wscc9-zip-interface": dict(interface=(5,)),
    "twobus-interface": dict(interface=(2,), network="twobus"),
    "twobus-zip": dict(interface=(), network="twobus"),
}


def check_against_oracle(dae, sub, seed):
    rng = np.random.default_rng(seed)
    gen = [dae.net.idx(b) for b in dae.net.gen_buses]
    for _ in range(20):
        x, y, u = off_equilibrium(sub, rng)
        v = bus_voltages(dae, y)[gen]
        assert_matches_oracle(dae.bank.derivatives(x, v),
                              oracle_derivatives(dae.bank, x, v))
        i_new = dae.bank.injected_current(x, v)
        i_old = oracle_injected_current(dae.bank, x, v)
        assert_matches_oracle(np.concatenate([i_new.real, i_new.imag]),
                              np.concatenate([i_old.real, i_old.imag]))
        assert_matches_oracle(dae.f(x, y), oracle_f(dae, x, y))
        assert_matches_oracle(dae.g(x, y, u), oracle_g(dae, x, y, u))


class TestScalarKernelMatchesVectorized:
    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_random_states(self, case):
        _, dae, sub = make_sub(**KERNEL_CASES[case])
        check_against_oracle(dae, sub, seed=1)

    @pytest.mark.parametrize("case", ["wscc9-zip-interface",
                                      "twobus-interface"])
    def test_set_points_of_a_second_initialize(self, case):
        # the per-machine constants must follow vref and pref when
        # initialize moves them to another operating point
        _, dae, sub = make_sub(**KERNEL_CASES[case])
        vref, pref = dae.bank.vref.copy(), dae.bank.pref.copy()
        sub.initialize(1.2 * np.asarray(sub.current_input))
        assert not np.any(dae.bank.vref == vref)
        assert not np.any(dae.bank.pref == pref)
        assert np.max(np.abs(dae.f(sub.x, sub.y))) < 1e-9
        check_against_oracle(dae, sub, seed=2)


class TestNonFiniteStaysNumeric:
    """A non-finite angle or a dead bus gives non-finite residual entries,
    which the Newton damps or fails on, never an exception."""

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_non_finite_rotor_angle(self, delta):
        _, dae, sub = make_sub()
        x, y, u = sub.x.copy(), sub.y, sub.current_input
        x[2] = delta  # machine 1's rotor angle
        with np.errstate(invalid="ignore"):
            f_old, g_old = oracle_f(dae, x, y), oracle_g(dae, x, y, u)
        f_new, g_new = dae.f(x, y), dae.g(x, y, u)
        assert not np.all(np.isfinite(f_new))
        assert not np.all(np.isfinite(g_new))
        assert_matches_oracle(f_new, f_old)
        assert_matches_oracle(g_new, g_old)

    @pytest.mark.parametrize("bus", [6, 5], ids=["static-load", "interface"])
    def test_zero_voltage_at_a_loaded_bus(self, bus):
        net, dae, sub = make_sub()
        y = sub.y.copy()
        k = net.idx(bus)
        y[k] = y[k + net.n_bus] = 0.0
        r = dae.g(sub.x, y, sub.current_input)
        assert r.shape == (dae.n_y,)
        assert not np.all(np.isfinite(r))

    def test_voltage_past_the_float_range(self):
        # Python's abs of such a complex raises OverflowError, where
        # numpy's gave inf
        net, dae, sub = make_sub()
        y = np.full(dae.n_y, 1.7e308)
        u = sub.current_input
        assert not np.all(np.isfinite(dae.f(sub.x, y)))
        r = dae.g(sub.x, y, u)
        assert r.shape == (dae.n_y,)
        assert not np.all(np.isfinite(r))

    def test_zero_voltage_at_a_generator_bus(self):
        # no load there: the machine's equations stay finite, as before
        net, dae, sub = make_sub()
        y = sub.y.copy()
        k = net.idx(net.gen_buses[0])
        y[k] = y[k + net.n_bus] = 0.0
        u = sub.current_input
        assert_matches_oracle(dae.f(sub.x, y), oracle_f(dae, sub.x, y))
        assert_matches_oracle(dae.g(sub.x, y, u), oracle_g(dae, sub.x, y, u))
        assert np.all(np.isfinite(dae.g(sub.x, y, u)))
