"""The sub-system state contract: ``state()``, ``set_state()``, ``rotate()``.

Every concrete ``SubSystem`` of the package is found by walking
``__subclasses__()`` after importing every module, so a sub-system added
without the contract, or without a case here, fails.  A round trip
``set_state(state())`` is checked against a twin built the same way and
left alone: the next ``output()``, ``advance`` and ``state()`` must be
bit-identical.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import cotds
from cotds.cosim import (CouplingMethod, CouplingSchedule, SubSystem,
                         run_cosimulation)
from cotds.engine import (MonolithicDae, build_subsystems,
                          iterative_td_powerflow_init)
from cotds.feeder import DistributionFeeder, DistributionSubSystem
from cotds.linlab import (LinearCoupledParams, LinearHalf, StateVec2,
                          make_linear_pair)
from cotds.machines import N_GEN_STATES
from cotds.scenario_io import fixture_path, load_scenario
from cotds.transmission import TransmissionSubSystem

for _mod in pkgutil.iter_modules(cotds.__path__):
    importlib.import_module(f"cotds.{_mod.name}")


def package_subsystems():
    """Every subclass of ``SubSystem`` defined in the package."""
    found, todo = set(), [SubSystem]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("cotds."):
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def initialised(name):
    scenario = load_scenario(fixture_path(name))
    subsystems, dsubs, interface_buses = build_subsystems(scenario)
    iterative_td_powerflow_init(subsystems["T"], dsubs, interface_buses)
    return subsystems


def tc1_mid_run():
    """testcase1 after 0.3 s of series co-simulation, before its event."""
    subsystems = initialised("testcase1")
    run_cosimulation(CouplingSchedule(0.006, 0.3), subsystems,
                     CouplingMethod.SERIES)
    return subsystems


def tc1_motor_connected():
    """testcase1 mid-run, right after its motor connects: D6's output is
    still the one solved before the switch."""
    subsystems = tc1_mid_run()
    subsystems["D6"].switch("connect_motor", {"name": "bus6_im2"})
    return subsystems


def linear_mid_run():
    pair = make_linear_pair(LinearCoupledParams(-1.0, -2.0, 2.0, 2.0),
                            StateVec2(1.0, -0.5))
    run_cosimulation(CouplingSchedule(0.1, 0.3), pair, CouplingMethod.SERIES)
    return pair


# per sub-system class: case id -> a function building it, run the same
# way on every call
CASES = {
    TransmissionSubSystem: {
        "testcase1_mid_run": lambda: tc1_mid_run()["T"],
        "testcase2_initial": lambda: initialised("testcase2")["T"],
    },
    DistributionSubSystem: {
        "testcase1_mid_run": lambda: tc1_mid_run()["D5"],
        "after_connect_motor": lambda: tc1_motor_connected()["D6"],
        # testcase2's second feeder is off until its connect_feeder event
        "feeder_switched_off": lambda: initialised("testcase2")["D2"],
    },
    LinearHalf: {
        "hub": lambda: linear_mid_run()["A"],
        "spoke": lambda: linear_mid_run()["B"],
    },
}
ALL_CASES = [(cls, case) for cls, cases in CASES.items() for case in cases]
ROTATED = [(cls, case) for cls, case in ALL_CASES if cls is not LinearHalf]
H = 0.006


def case_id(value):
    return value.__name__ if isinstance(value, type) else value


def same(a, b):
    """Bit-identical arrays, nan where nan."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cls", package_subsystems(), ids=case_id)
def test_every_subsystem_has_the_contract(cls):
    for method in ("state", "set_state"):
        assert getattr(cls, method) is not getattr(SubSystem, method), (
            f"{cls.__name__} does not implement {method}")
    assert CASES.get(cls), f"{cls.__name__} has no round-trip case here"
    # the exchange restarts a spoke it switched; SubSystem has no stub
    if cls.switch is not SubSystem.switch:
        assert callable(getattr(cls, "restart", None)), (
            f"{cls.__name__} takes events but has no restart")


def test_package_subsystems_found():
    assert set(package_subsystems()) == {TransmissionSubSystem,
                                         DistributionSubSystem, LinearHalf}


@pytest.mark.parametrize("cls, case", ALL_CASES, ids=case_id)
def test_round_trip_is_bit_identical(cls, case):
    twin, sub = CASES[cls][case](), CASES[cls][case]()
    z = sub.state()
    assert z.dtype == float and z.ndim == 1
    sub.set_state(z)
    assert same(sub.state(), twin.state())
    y0 = twin.output()
    snap0 = twin.snapshot()
    assert same(sub.output(), y0)
    assert sub.snapshot() == snap0
    sub.advance(H)
    twin.advance(H)
    assert same(sub.output(), twin.output())
    assert same(sub.state(), twin.state())
    assert sub.snapshot() == twin.snapshot()
    # set_state writes every field state() reads: a scaled state (which
    # keeps a switched-off feeder's nodes at its input) reads back as set,
    # and a rollback restores the first
    sub.set_state(1.001 * z)
    assert same(sub.state(), 1.001 * z)
    sub.set_state(z)
    assert same(sub.state(), z)
    assert same(sub.output(), y0)
    assert sub.snapshot() == snap0


def float_list(v):
    return type(v) is list and all(type(x) is float for x in v)


@pytest.mark.parametrize("cls, case", ALL_CASES, ids=case_id)
def test_interface_vectors_are_float_lists(cls, case):
    sub = CASES[cls][case]()
    y = sub.output()
    assert float_list(y) and float_list(sub.current_input)
    # a new list each call: the caller may keep or change it
    y.append(0.0)
    assert sub.output() == y[:-1]
    u = np.asarray(sub.current_input)
    sub.set_input(u)
    assert float_list(sub.current_input)
    assert sub.current_input == u.tolist()
    z = sub.state()
    sub.set_state(z)
    assert float_list(sub.current_input)


def test_switch_leaves_the_reads_alone(monkeypatch):
    # a switch changes topology only: the output and state read as before
    # it, finite, and no read solves a feeder
    sub = tc1_mid_run()["D6"]
    y, z, snap = sub.output(), sub.state(), sub.snapshot()

    def no_sweep(self, *args, **kwargs):
        raise AssertionError("a read solved a feeder")

    monkeypatch.setattr(DistributionFeeder, "node_currents", no_sweep)
    sub.switch("disconnect_motor", {"name": "bus6_im1"})
    assert np.all(np.isfinite(z))
    assert same(sub.output(), y)
    assert same(sub.state(), z)
    assert sub.snapshot() == snap
    sub.set_state(z)
    assert same(sub.state(), z)


def old_resolve(sub):
    """The output that the first read after a switch re-solved, lazily,
    before ``restart`` existed, verbatim: the oracle."""
    v = complex(sub.current_input[0], sub.current_input[1])
    s = 0.0 + 0.0j
    for fd in sub.feeders:
        if fd.active:
            s += fd.source_power(v)
    return [s.real, s.imag]


def test_restart_re_solves_as_the_first_read_did():
    sub = CASES[DistributionSubSystem]["after_connect_motor"]()
    twin = CASES[DistributionSubSystem]["after_connect_motor"]()
    sub.restart()
    want = old_resolve(twin)
    assert same(sub.output(), want)
    assert same(sub.state()[4:], twin.state()[4:])  # the nodes moved alike
    assert sub.snapshot() == twin.snapshot()
    assert not same(sub.output(), tc1_mid_run()["D6"].output())


def test_switched_off_feeder_pinned_to_input():
    sub = CASES[DistributionSubSystem]["feeder_switched_off"]()
    off = [fd for fd in sub.feeders if not fd.active]
    assert off
    z = sub.state()
    z[0:2] *= 0.97   # a new input
    z[4:] += 1e-3    # and every node voltage and motor state moved
    sub.set_state(z)
    v_in = complex(*sub.state()[:2])
    for fd in off:
        assert fd.v == [v_in] * fd.n_nodes


def in_solver_form(sub):
    """Every node voltage list of Python complex numbers, and every motor
    state a (Python complex, Python float) pair."""
    for fd in sub.feeders:
        assert type(fd.v) is list and len(fd.v) == fd.n_nodes
        assert all(type(vn) is complex for vn in fd.v)
        for mu in fd.motors:
            assert type(mu.state) is tuple and len(mu.state) == 2
            assert type(mu.state[0]) is complex, mu.name
            assert type(mu.state[1]) is float, mu.name
    return True


@pytest.mark.parametrize("name", ["testcase1", "testcase2"])
def test_distribution_state_stays_in_solver_form(name):
    subsystems = initialised(name)
    dsubs = [sub for sub in subsystems.values()
             if isinstance(sub, DistributionSubSystem)]
    assert all(in_solver_form(sub) for sub in dsubs)
    for sub in dsubs:
        sub.advance(H)
        assert in_solver_form(sub)
        for fd in sub.feeders:
            for mu in fd.motors:
                sub.switch("connect_motor", {"name": mu.name})
                assert in_solver_form(sub)
        sub.restart()
        sub.set_state(sub.state())
        assert in_solver_form(sub)
    mono = MonolithicDae(subsystems["T"], {f"D{k}": sub for k, sub in
                                           enumerate(dsubs)})
    x, y = mono.gather()
    mono.scatter(x, y, mono.interface_power(x, y)[0])
    assert all(in_solver_form(sub) for sub in dsubs)


@pytest.mark.parametrize("cls, case", ROTATED, ids=case_id)
def test_rotate_back_restores(cls, case):
    sub = CASES[cls][case]()
    z = sub.state()
    sub.rotate(0.7)
    assert not np.allclose(sub.state(), z, equal_nan=True)
    sub.rotate(-0.7)
    assert np.allclose(sub.state(), z, rtol=0.0, atol=1e-14, equal_nan=True)


@pytest.mark.parametrize("cls, case", ROTATED, ids=case_id)
def test_rotate_keeps_magnitudes(cls, case):
    """|V|, slip and speed channels stay; rotor angles grow by the angle;
    a D output, powers, stays and a T output, voltages, turns."""
    sub = CASES[cls][case]()
    a = -1.3
    y = np.asarray(sub.output())
    snap = sub.snapshot()
    sub.rotate(a)
    turned = sub.snapshot()
    assert list(turned) == list(snap)
    for ch, value in snap.items():
        want = value + a if ch.endswith(".delta") else value
        assert turned[ch] == pytest.approx(want, rel=0.0, abs=1e-14), ch
    if cls is TransmissionSubSystem:
        v = (y[0::2] + 1j * y[1::2]) * np.exp(1j * a)
        want = np.column_stack([v.real, v.imag]).ravel()
    else:
        want = y
    assert np.allclose(sub.output(), want, rtol=0.0, atol=1e-14,
                       equal_nan=True)


def turned(sub, z, a):
    """``z`` with every angle and phasor of ``sub``'s layout turned by a."""
    c = np.exp(1j * a)
    z = z.copy()
    if isinstance(sub, TransmissionSubSystem):
        nx, n = sub.x.size, sub.dae.net.n_bus
        z[2:nx:N_GEN_STATES] += a
        v = (z[nx:nx + n] + 1j * z[nx + n:nx + 2 * n]) * c
        z[nx:nx + n], z[nx + n:nx + 2 * n] = v.real, v.imag
        return z
    # the input, every node voltage, then each motor's E'
    nodes_end = 4 + 2 * sum(fd.n_nodes for fd in sub.feeders)
    for k in [0, *range(4, nodes_end, 2), *range(nodes_end, z.size, 3)]:
        v = complex(z[k], z[k + 1]) * c
        z[k], z[k + 1] = v.real, v.imag
    return z


@pytest.mark.parametrize("cls, case", ROTATED, ids=case_id)
def test_rotate_turns_every_angle_and_phasor(cls, case):
    sub = CASES[cls][case]()
    z = sub.state()
    sub.rotate(2.1)
    assert np.allclose(sub.state(), turned(sub, z, 2.1), rtol=0.0,
                       atol=1e-14, equal_nan=True)


@pytest.mark.parametrize("cls, case", ALL_CASES, ids=case_id)
def test_wrong_length_is_value_error(cls, case):
    sub = CASES[cls][case]()
    z = sub.state()
    for bad in (z[:-1], np.append(z, 0.0), z.reshape(1, -1)):
        with pytest.raises(ValueError, match="components"):
            sub.set_state(bad)
    assert same(sub.state(), z)
