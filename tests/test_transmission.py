import numpy as np
import pytest

from cotds.integrators import NewtonError
from cotds.loads import ZipLoadParams
from cotds.machines import GeneratorBank
from cotds import transmission
from cotds.power_network import load_network, newton_power_flow
from cotds.transmission import TransmissionDae, TransmissionSubSystem


def make_sub(interface=(5,), zip_loads=True):
    net = load_network("wscc9")
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
    sub = TransmissionSubSystem("T", dae)
    s_if = net.loads[interface[0]]
    sub.initialize(np.array([s_if.real, s_if.imag]))
    return net, dae, sub


class TestInitialize:
    def test_algebraic_residual_vanishes(self):
        _, dae, sub = make_sub()
        r = dae.g(sub.x, sub.y, sub.current_input)
        assert np.max(np.abs(r)) < 1e-10

    def test_differential_residual_vanishes(self):
        _, dae, sub = make_sub()
        assert np.max(np.abs(dae.f(sub.x, sub.y, sub.current_input))) < 1e-9

    def test_constant_power_matches_base_power_flow(self):
        # With pure constant-P statics the init must land on the stock
        # power-flow solution.
        net, dae, sub = make_sub(zip_loads=False)
        pf = newton_power_flow(net)
        v = dae.bus_voltages(sub.y)
        assert np.max(np.abs(v - pf.v)) < 1e-9

    def test_one_power_flow_with_zip_loads(self, monkeypatch):
        # the ZIP statics go into the power flow itself, next to the
        # interface power as a constant-power load: one solve
        calls = []

        def counted(net, loads, zip_loads):
            calls.append((dict(loads), dict(zip_loads)))
            return newton_power_flow(net, loads, zip_loads)

        monkeypatch.setattr(transmission, "newton_power_flow", counted)
        net, dae, _ = make_sub()
        assert calls == [({5: net.loads[5]}, dae.static_loads)]

    def test_output_is_interface_voltage(self):
        net, dae, sub = make_sub()
        v = dae.bus_voltages(sub.y)
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
        v0 = abs(dae.bus_voltages(sub.y)[net.idx(5)])
        u[1] += 0.5  # extra reactive draw at the interface bus
        sub.set_input(u)
        sub.advance(0.01)
        v1 = abs(dae.bus_voltages(sub.y)[net.idx(5)])
        assert v1 < v0 - 0.01

    def test_exciter_restores_voltage(self):
        net, dae, sub = make_sub()
        u = sub.current_input.copy()
        v0 = abs(dae.bus_voltages(sub.y)[net.idx(5)])
        u[0] += 0.2
        sub.set_input(u)
        for _ in range(400):
            sub.advance(0.01)
        v1 = abs(dae.bus_voltages(sub.y)[net.idx(5)])
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
