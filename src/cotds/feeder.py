"""Radial distribution feeders and the distribution-side sub-system.

A feeder is a radial tree of series branches fed from a substation node.
Node components are static ZIP loads and induction motors.  The feeder
power flow is a backward/forward sweep: node currents are accumulated
toward the substation, then voltages are propagated outward, iterating
because load currents depend on node voltage.  ``node_currents`` is the
one place the ZIP and motor currents are computed; besides the sweep it
feeds ``kcl``, the feeder's KCL mismatch at given node voltages and motor
states, which the monolithic reference stacks into its DAE together with
``motor_derivatives``.  A feeder has a handful of nodes, where numpy's
per-call overhead outweighs the arithmetic, so the sweep and ``kcl`` work
on lists of Python complex node voltages and currents; the sweep writes
``DistributionFeeder.v`` back as an array once it has converged.

The ``DistributionSubSystem`` wraps one or more feeders hanging off a
single transmission interface bus.  Its macro step is: solve the feeder
power flow at the new substation voltage, advance every motor with its
terminal voltage frozen, then solve the power flow again so the reported
source power is consistent with the post-step states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cosim import CosimError, SubSystem
from .integrators import NumericFailure, rk_component_step
from .loads import InductionMotor, ZipLoadParams, zip_power

__all__ = ["FeederBranch", "MotorUnit", "DistributionFeeder",
           "DistributionSubSystem", "FeederError"]


# iteration budgets of the sweep and of the sweep + motor fixed point
_SWEEP_ITERS = 100
_INIT_PASSES = 50


class FeederError(NumericFailure):
    pass


@dataclass(frozen=True)
class FeederBranch:
    parent: int
    child: int
    r: float
    x: float

    @property
    def z(self) -> complex:
        return complex(self.r, self.x)


@dataclass
class MotorUnit:
    """One motor instance attached to a feeder node."""

    name: str
    node: int
    motor: InductionMotor
    p_target: float          # consumed active power at initialisation
    state: np.ndarray = field(default_factory=lambda: np.zeros(3))
    active: bool = True

    def equilibrium(self, v: complex) -> np.ndarray:
        """The motor's running state drawing ``p_target`` at voltage ``v``.

        Raises ``FeederError`` when no stable running state draws that
        power.
        """
        try:
            return self.motor.initialize(v, self.p_target)
        except ValueError as exc:
            raise FeederError(
                f"motor {self.name}: no stable running state draws p_target "
                f"{self.p_target:.6g} at |V| {abs(v):.6g}") from exc


class DistributionFeeder:
    """Radial tree with node 0 as the substation."""

    def __init__(self, branches: list[FeederBranch],
                 zip_loads: dict[int, ZipLoadParams] | None = None,
                 motors: list[MotorUnit] | None = None,
                 active: bool = True):
        self.branches = tuple(branches)
        self.zip_loads = dict(zip_loads or {})
        self.motors = list(motors or [])
        self.active = active

        nodes = {0}
        for br in self.branches:
            if br.parent not in nodes:
                raise FeederError("branches must be listed parent-first")
            if br.child in nodes:
                raise FeederError(f"node {br.child} has two parents")
            nodes.add(br.child)
        self.n_nodes = len(nodes)
        self.v = np.ones(self.n_nodes, dtype=complex)
        # (parent, child, impedance) of each branch, parent-first
        self._edges = tuple((br.parent, br.child, br.z)
                            for br in self.branches)

    # -- power flow -------------------------------------------------------

    def node_currents(self, v: list[complex], states=None) -> list[complex]:
        """Current drawn at each node by its components (system base).

        ``v`` holds the node voltages as Python complex numbers, and
        ``states`` one state per motor, in ``motors`` order, by default
        the motors' own.  A zero voltage at a loaded node is a
        ``FeederError``.
        """
        i = [0j] * self.n_nodes
        try:
            for node, zl in self.zip_loads.items():
                vn = v[node]
                i[node] += (zip_power(zl, abs(vn)) / vn).conjugate()
            for k, mu in enumerate(self.motors):
                if not mu.active:
                    continue
                x = mu.state if states is None else states[k]
                vn = v[mu.node]
                i[mu.node] += (mu.motor.terminal_power(x, vn) / vn).conjugate()
        except ZeroDivisionError:
            raise FeederError("zero voltage at a loaded node") from None
        return i

    def kcl(self, v: np.ndarray, states) -> tuple[complex, np.ndarray]:
        """Source current and KCL mismatch at nodes 1..N.

        ``v`` holds every node voltage, node 0 the substation's.  The
        mismatch at a node is the branch current flowing in less the
        branch currents flowing out and the current its components draw.
        A feeder that is switched off draws nothing, and its nodes float
        at the substation voltage.
        """
        if not self.active:
            return 0j, v[1:] - v[0]
        v = v.tolist()
        bal = [-i for i in self.node_currents(v, states)]
        try:
            for p, c, z in self._edges:
                ibr = (v[p] - v[c]) / z
                bal[p] -= ibr
                bal[c] += ibr
        except ZeroDivisionError:
            raise FeederError(f"branch {p}-{c} has zero impedance") from None
        return -bal[0], np.array(bal[1:])

    def motor_derivatives(self, v: np.ndarray, states) -> np.ndarray:
        """Stacked motor state derivatives; zero for a motor switched off."""
        out = np.zeros((len(self.motors), InductionMotor.N_STATES))
        if self.active:
            for k, (mu, x) in enumerate(zip(self.motors, states)):
                if mu.active:
                    out[k] = mu.motor.derivatives(x, complex(v[mu.node]))
        return out.ravel()

    def sweep(self, v_sub: complex, tol: float = 1e-8) -> complex:
        """Backward/forward sweep; returns the substation source current."""
        v_sub = complex(v_sub)
        v = self.v.tolist()
        v[0] = v_sub
        edges = self._edges
        for _ in range(_SWEEP_ITERS):
            acc = self.node_currents(v)
            # backward: accumulate branch currents toward the root; a
            # child's branches come after its own, so acc[c] is final
            for p, c, _ in reversed(edges):
                acc[p] += acc[c]
            # forward: push voltages out from the substation
            v_new = [v_sub] * self.n_nodes
            for p, c, z in edges:
                v_new[c] = v_new[p] - z * acc[c]
            delta = max(abs(a - b) for a, b in zip(v_new, v))
            v = v_new
            if delta < tol:
                self.v = np.array(v)
                return acc[0]
        self.v = np.array(v)
        raise FeederError("feeder sweep did not converge")

    def source_power(self, v_sub: complex) -> complex:
        return v_sub * self.sweep(v_sub).conjugate()

    # -- dynamics -----------------------------------------------------------

    def step_motors(self, h: float, tol: float = 1e-6) -> None:
        """Advance every active motor over ``h``, its terminal voltage held."""
        for mu in self.motors:
            if mu.active:
                mu.state = np.array(rk_component_step(
                    mu.motor.derivatives, mu.state, complex(self.v[mu.node]),
                    h, tol=tol))

    def initialize(self, v_sub: complex) -> None:
        """Fixed point of sweep + motor equilibrium at node voltages."""
        self.v[:] = v_sub
        for _ in range(_INIT_PASSES):
            v_old = self.v.copy()
            for mu in self.motors:
                if mu.active:
                    mu.state = mu.equilibrium(complex(self.v[mu.node]))
            self.sweep(v_sub)
            if np.max(np.abs(self.v - v_old)) < 1e-12:
                return
        raise FeederError("feeder initialisation did not converge")


class DistributionSubSystem(SubSystem):
    """Feeders at one interface bus.  Input [e, f]; output consumed [P, Q]."""

    def __init__(self, name: str, feeders: list[DistributionFeeder],
                 rk_tol: float = 1e-6):
        self.name = name
        self.feeders = list(feeders)
        self.rk_tol = rk_tol
        self.current_input = np.array([1.0, 0.0])
        self._output = np.zeros(2)

    def _v_sub(self) -> complex:
        return complex(self.current_input[0], self.current_input[1])

    def _total_power(self) -> complex:
        v = self._v_sub()
        s = 0.0 + 0.0j
        for fd in self.feeders:
            if fd.active:
                s += fd.source_power(v)
        return s

    def initialize(self, inputs: np.ndarray) -> None:
        self.set_input(inputs)
        v = self._v_sub()
        for fd in self.feeders:
            if fd.active:
                fd.initialize(v)
        s = self._total_power()
        self._output = np.array([s.real, s.imag])

    def advance(self, h: float) -> None:
        v = self._v_sub()
        for fd in self.feeders:
            if fd.active:
                fd.sweep(v)
                fd.step_motors(h, tol=self.rk_tol)
        s = self._total_power()
        if not np.isfinite(s.real) or not np.isfinite(s.imag):
            raise OverflowError("distribution state is non-finite")
        self._output = np.array([s.real, s.imag])

    def output(self) -> np.ndarray:
        return self._output.copy()

    def snapshot(self):
        out = {}
        for k, fd in enumerate(self.feeders):
            for mu in fd.motors:
                out[f"{mu.name}.slip"] = float(mu.state[2])
            for node in range(fd.n_nodes):
                # a feeder switched off floats at the substation voltage
                v = fd.v[node] if fd.active else self._v_sub()
                out[f"f{k}.v{node}"] = float(abs(v))
        return out

    def apply_event(self, action: str, params) -> None:
        self.switch(action, params)
        # the interface sees topology changes immediately
        s = self._total_power()
        self._output = np.array([s.real, s.imag])

    def switch(self, action: str, params) -> None:
        """Apply a topology event to the feeders; the output is left as is."""
        if action == "connect_motor":
            mu = self._find_motor(params["name"])
            # load torque referenced to rated consumption at nominal volts
            mu.equilibrium(1.0 + 0.0j)
            mu.state = mu.motor.standstill_state()
            mu.active = True
        elif action == "disconnect_motor":
            self._find_motor(params["name"]).active = False
        elif action == "connect_feeder":
            fd = self.feeders[int(params["index"])]
            fd.active = True
            fd.initialize(self._v_sub())
        elif action == "disconnect_feeder":
            self.feeders[int(params["index"])].active = False
        else:
            raise CosimError(f"unknown distribution event {action!r}")

    def _find_motor(self, name: str) -> MotorUnit:
        for fd in self.feeders:
            for mu in fd.motors:
                if mu.name == name:
                    return mu
        raise CosimError(f"no motor named {name!r}")
