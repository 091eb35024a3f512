import json
from importlib import resources

import numpy as np
import pytest

from cotds.loads import ZipLoadParams, zip_power
from cotds.power_network import (
    PowerFlowError,
    load_network,
    newton_power_flow,
)

# [DERIVED] frozen solution of the nine-bus base case (Newton, tol 1e-10).
WSCC9_V = np.array([
    1.04 + 0.0j,
    1.011584852511 + 0.165290913757j,
    1.021604797397 + 0.083358490481j,
    1.025020719274 - 0.039678104201j,
    0.99321910217 - 0.069257639169j,
    1.010557916744 - 0.065126621727j,
    1.023608455694 + 0.066547237045j,
    1.015800685969 + 0.012899228782j,
    1.031744822915 + 0.035429249248j,
])
WSCC9_SGEN = np.array([
    0.716410214745 + 0.270459235335j,
    1.63 + 0.066536603184j,
    0.85 - 0.10859709071j,
])


def pq_mismatch(net, v, loads, zip_loads=None):
    """Largest P mismatch at a non-slack bus and Q mismatch at a PQ bus:
    the polar mismatch equations of the power flow, at the voltages v."""
    s = v * np.conj(net.ybus @ v)
    for bus, s_load in loads.items():
        s[net.idx(bus)] += s_load
    for bus, zl in (zip_loads or {}).items():
        i = net.idx(bus)
        s[i] += zip_power(zl, abs(v[i]))
    p_set = {g["bus"]: g["p_set"] for g in net.gen_params}
    p = [s[net.idx(b)].real - p_set.get(b, 0.0)
         for b in net.bus_ids if b != net.slack_bus]
    q = [s[net.idx(b)].imag for b in net.bus_ids if b not in p_set]
    return float(np.max(np.abs(p + q)))


class TestLoadNetwork:
    def test_wscc9_shape(self):
        net = load_network("wscc9")
        assert len(net.bus_ids) == 9
        assert net.ybus.shape == (9, 9)
        assert net.gen_buses == [1, 2, 3]
        assert net.slack_bus == 1

    def test_twobus_shape(self):
        net = load_network("twobus")
        assert len(net.bus_ids) == 2
        assert net.gen_buses == [1]

    def test_unknown_name(self):
        with pytest.raises((FileNotFoundError, ValueError)):
            load_network("no_such_network")

    @pytest.mark.parametrize("edit, message", [
        (lambda net: net.update(buses=5), "buses: expected a list, got int"),
        (lambda net: net.update(branches={}),
         "branches: expected a list, got dict"),
        (lambda net: net.update(generators="g1"),
         "generators: expected a list, got str"),
        (lambda net: net["branches"].append([1, 2]),
         "branches[1]: expected an object, got list"),
        (lambda net: net["generators"].insert(0, 1),
         "generators[0]: expected an object, got int"),
        (lambda net: net.update(loads=[1, 2]),
         "loads: expected an object, got list"),
        (lambda net: net.update(loads={"2": 1.0}),
         "loads: expected a mapping of bus to [p, q]"),
        (lambda net: net.update(loads={"2": [1.0, "0.3"]}),
         "loads: expected a finite number, got '0.3'"),
        (lambda net: net.clear(), "buses: missing"),
        (lambda net: net["branches"][0].update(to=3),
         "branches[0].to: unknown bus 3"),
        (lambda net: net["branches"][0].update(r="0.01"),
         "branches[0].r: expected a finite number, got '0.01'"),
        (lambda net: net["branches"][0].pop("x"), "branches[0].x: missing"),
        (lambda net: net["loads"].update({"3": [1.0, 0.1]}),
         "loads: unknown bus 3"),
        (lambda net: net["generators"][0].update(bus=7),
         "generators[0].bus: unknown bus 7"),
        (lambda net: net["generators"][0].update(h="5.0"),
         "generators[0].h: expected a finite number, got '5.0'"),
        (lambda net: net["generators"][0]["exciter"].update(gain=None),
         "generators[0].exciter.gain: expected a finite number, got None"),
        (lambda net: net["generators"][0].update(governor=[0.05, 0.5]),
         "generators[0].governor: expected an object, got list"),
        (lambda net: net.update(slack=2, buses=[1, 2]),
         "generators[0].p_set: expected a finite number, got None"),
        (lambda net: net.update(slack=4), "slack: unknown bus 4"),
        (lambda net: net.update(buses=[1, "2"]),
         "buses[1]: expected an integer, got '2'"),
        (lambda net: net["branches"][0].update(c=0.0),
         "branches[0]: unknown keys ['c']"),
        (lambda net: net["generators"][0].update(kd=1.0),
         "generators[0]: unknown keys ['kd']"),
        (lambda net: net["generators"][0]["exciter"].update(k=1.0),
         "generators[0].exciter: unknown keys ['k']"),
        (lambda net: net.update(f_hz="60"),
         "f_hz: expected a finite number, got '60'"),
        (lambda net: net.update(base_mva=100.0),
         "unknown keys ['base_mva']"),
        (lambda net: net.update(name="twobus"), "unknown keys ['name']"),
    ], ids=["buses", "branches", "generators", "branch", "generator",
            "loads_a_list", "load_a_number", "load_a_string", "empty",
            "branch_to_unknown_bus", "branch_quoted_number",
            "branch_without_x", "load_at_unknown_bus",
            "generator_at_unknown_bus", "generator_quoted_number",
            "exciter_gain_null", "governor_a_list", "p_set_null_off_slack",
            "slack_unknown", "bus_id_a_string", "branch_unknown_key",
            "generator_unknown_key", "exciter_unknown_key",
            "f_hz_quoted_number", "base_mva", "name"])
    def test_malformed_section_is_named(self, tmp_path, edit, message):
        net = json.loads((resources.files("cotds.data") / "twobus.json")
                         .read_text())
        edit(net)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net))
        with pytest.raises(ValueError) as exc:
            load_network(str(path))
        assert str(exc.value) == message

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="^expected an object, got list$"):
            load_network(str(path))

    def test_ybus_symmetric(self):
        net = load_network("wscc9")
        assert np.allclose(net.ybus, net.ybus.T)

    def test_row_sums_equal_shunts(self):
        # With no shunt elements the two-bus Ybus rows sum to zero.
        net = load_network("twobus")
        assert np.allclose(net.ybus.sum(axis=1), 0.0, atol=1e-12)


class TestNewtonPowerFlow:
    def test_wscc9_voltages(self):
        net = load_network("wscc9")
        pf = newton_power_flow(net)
        assert np.allclose(pf.v, WSCC9_V, atol=1e-9)
        assert pq_mismatch(net, pf.v, net.loads) < 1e-10

    def test_wscc9_generation(self):
        pf = newton_power_flow(load_network("wscc9"))
        assert np.allclose(pf.s_gen, WSCC9_SGEN, atol=1e-9)

    def test_pv_setpoints_held(self):
        net = load_network("wscc9")
        pf = newton_power_flow(net)
        for k, bus in enumerate(net.gen_buses):
            i = net.idx(bus)
            vset = net.gen_params[k]["v_set"]
            if bus != net.slack_bus:
                assert abs(abs(pf.v[i]) - vset) < 1e-10

    def test_power_balance(self):
        # Generation minus load equals the network losses.
        net = load_network("wscc9")
        pf = newton_power_flow(net)
        losses = (pf.v * np.conj(net.ybus @ pf.v)).real.sum()
        p_load = sum(s.real for s in net.loads.values())
        assert abs(pf.s_gen.real.sum() - p_load - losses) < 1e-9

    def test_mismatch_is_small_everywhere(self):
        net = load_network("wscc9")
        pf = newton_power_flow(net)
        inj = pf.v * np.conj(net.ybus @ pf.v)
        spec = np.zeros(9, dtype=complex)
        for bus, s in net.loads.items():
            spec[net.idx(bus)] -= s
        for bus, s in zip(net.gen_buses, pf.s_gen):
            spec[net.idx(bus)] += s
        assert np.max(np.abs(inj - spec)) < 1e-9

    def test_load_override(self):
        net = load_network("twobus")
        pf0 = newton_power_flow(net)
        pf1 = newton_power_flow(net, loads={2: 0.5 + 0.1j})
        assert abs(pf1.v[1]) > abs(pf0.v[1])

    def test_infeasible_raises(self):
        net = load_network("twobus")
        with pytest.raises(PowerFlowError):
            newton_power_flow(net, loads={2: 60.0 + 20.0j})

    def test_zip_loads_drawn_at_solved_voltage(self):
        # ZIP loads on PQ, PV and slack buses are drawn at the solved
        # voltage magnitudes: as constant-power loads of those values they
        # give the same solution
        net = load_network("wscc9")
        zips = {bus: ZipLoadParams(p0=s.real, q0=s.imag, z_frac=0.4,
                                   i_frac=0.3, p_frac=0.3)
                for bus, s in {**net.loads, 1: 0.2 + 0.1j,
                               2: 0.3 + 0.1j}.items()}
        pf = newton_power_flow(net, {}, zips)
        drawn = {bus: zip_power(zl, abs(pf.v[net.idx(bus)]))
                 for bus, zl in zips.items()}
        pf_const = newton_power_flow(net, drawn)
        assert pq_mismatch(net, pf.v, {}, zips) < 1e-10
        assert np.max(np.abs(pf.v - pf_const.v)) < 1e-9
        assert np.max(np.abs(pf.s_gen - pf_const.s_gen)) < 1e-9

    def test_unservable_zip_loads_raise(self):
        net = load_network("twobus")
        zl = ZipLoadParams(p0=10.0, q0=3.3, z_frac=0.4, i_frac=0.3,
                           p_frac=0.3)
        with pytest.raises(PowerFlowError, match="did not converge"):
            newton_power_flow(net, {}, {2: zl})
