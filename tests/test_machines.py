import numpy as np

from cotds.machines import GeneratorBank, N_GEN_STATES
from cotds.power_network import load_network, newton_power_flow


def make_bank():
    net = load_network("wscc9")
    pf = newton_power_flow(net)
    bank = GeneratorBank.from_params(net.gen_params, net.omega_s)
    v = pf.v[[net.idx(b) for b in net.gen_buses]]
    x0 = bank.initialize(v, pf.s_gen)
    return net, pf, bank, v, x0


class TestInitialize:
    def test_state_vector_shape(self):
        _, _, bank, _, x0 = make_bank()
        assert x0.shape == (bank.n_machines * N_GEN_STATES,)

    def test_equilibrium_derivatives_vanish(self):
        _, _, bank, v, x0 = make_bank()
        d = bank.derivatives(x0, v)
        assert np.max(np.abs(d)) < 1e-10

    def test_injected_current_reproduces_dispatch(self):
        # v * conj(i_inj) must equal the power-flow generator output.
        _, pf, bank, v, x0 = make_bank()
        s = v * np.conj(bank.injected_current(x0, v))
        assert np.allclose(s, pf.s_gen, atol=1e-10)

    def test_rotor_angle_leads_terminal_voltage(self):
        # delta = angle of V + jXq*I always leads the terminal angle
        # for a machine delivering active power.
        _, pf, bank, v, x0 = make_bank()
        _, _, delta, _, _, _ = bank.unpack(x0)
        assert np.all(delta > np.angle(v))

    def test_setpoints_absorb_equilibrium(self):
        _, _, bank, v, x0 = make_bank()
        _, _, _, _, efd, pm = bank.unpack(x0)
        assert np.allclose(bank.vref, np.abs(v) + efd / bank.ke)
        assert np.allclose(bank.pref, pm)


class TestDerivatives:
    def test_speed_deviation_drives_angle(self):
        _, _, bank, v, x0 = make_bank()
        eq_p, ed_p, delta, domega, efd, pm = bank.unpack(x0)
        x1 = bank.pack(eq_p, ed_p, delta, domega + 1e-3, efd, pm)
        d = bank.derivatives(x1, v)
        ddelta = d.reshape(-1, N_GEN_STATES)[:, 2]
        assert np.allclose(ddelta, bank.omega_s * 1e-3)

    def test_voltage_dip_raises_excitation(self):
        _, _, bank, v, x0 = make_bank()
        d = bank.derivatives(x0, 0.95 * v)
        defd = d.reshape(-1, N_GEN_STATES)[:, 4]
        assert np.all(defd > 0.0)

    def test_overspeed_pulls_back_mechanical_power(self):
        _, _, bank, v, x0 = make_bank()
        eq_p, ed_p, delta, domega, efd, pm = bank.unpack(x0)
        x1 = bank.pack(eq_p, ed_p, delta, domega + 1e-2, efd, pm)
        d = bank.derivatives(x1, v)
        dpm = d.reshape(-1, N_GEN_STATES)[:, 5]
        assert np.all(dpm < 0.0)

    def test_finite_difference_consistency(self):
        # The vectorized bank must agree with a naive per-machine loop.
        net, pf, bank, v, x0 = make_bank()
        d = bank.derivatives(x0, v)
        for k in range(bank.n_machines):
            one = GeneratorBank.from_params([net.gen_params[k]], net.omega_s)
            xk = one.initialize(v[k:k + 1], pf.s_gen[k:k + 1])
            dk = one.derivatives(xk, v[k:k + 1])
            sl = slice(k * N_GEN_STATES, (k + 1) * N_GEN_STATES)
            assert np.allclose(x0[sl], xk, atol=1e-12)
            assert np.allclose(d[sl], dk, atol=1e-12)

    def test_swing_balance_sign(self):
        # Raising mechanical power accelerates the rotor.
        _, _, bank, v, x0 = make_bank()
        eq_p, ed_p, delta, domega, efd, pm = bank.unpack(x0)
        x1 = bank.pack(eq_p, ed_p, delta, domega, efd, pm * 1.01)
        d = bank.derivatives(x1, v)
        ddom = d.reshape(-1, N_GEN_STATES)[:, 3]
        assert np.all(ddom > 0.0)
