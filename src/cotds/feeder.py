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
``DistributionFeeder.v`` back as an array once it has converged.  A
sweep reads its active motors' states as lists once and hands them to
every pass, whose convergence test maps ``abs`` over the voltage
changes, and ``step_motors`` reads the node voltages as one list.  A
motor's state is the array [re E', im E', slip]; ``step_motors`` hands
it to the RK45 as E' and slip, a Python complex and float, and
``motor_derivatives`` unpacks the same pair, so the co-simulation and
the monolithic reference share the one motor model.

``DistributionFeeder.initialize`` solves a feeder's steady state: it
alternates the motors' running equilibria at their node voltages with
one backward/forward pass at those states, from the last node profile
scaled to the new substation voltage, so the T-D initialisation's later
passes start next to their fixed point.

The ``DistributionSubSystem`` wraps one or more feeders hanging off a
single transmission interface bus.  Its macro step is: solve the feeder
power flow at the new substation voltage, advance every motor with its
terminal voltage frozen, then solve the power flow again so the reported
source power is consistent with the post-step states.  The nodes of a
feeder switched off float at the substation voltage: the sub-system pins
them to its input in ``set_input``, ``set_state`` and when it switches
the feeder off.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cosim import SubSystem
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
    """Radial tree with node 0 as the substation.

    The branches grow one tree from node 0, number its nodes 0..N and
    have nonzero impedances, as ``engine.FeederSpec`` checks; this class
    takes that as given.
    """

    def __init__(self, branches: list[FeederBranch],
                 zip_loads: dict[int, ZipLoadParams] | None = None,
                 motors: list[MotorUnit] | None = None,
                 active: bool = True):
        self.branches = tuple(branches)
        self.zip_loads = dict(zip_loads or {})
        self.motors = list(motors or [])
        self.active = active
        self.n_nodes = len(self.branches) + 1
        self.v = np.ones(self.n_nodes, dtype=complex)
        # (parent, child, impedance) of each branch, parent-first
        self._edges = tuple((br.parent, br.child, br.z)
                            for br in self.branches)
        # (parent, child) of each branch, children first
        self._back = tuple((p, c) for p, c, _ in reversed(self._edges))

    # -- power flow -------------------------------------------------------

    def node_currents(self, v: list[complex], states=None) -> list[complex]:
        """Current drawn at each node by its components (system base).

        ``v`` holds the node voltages as Python complex numbers, and
        ``states`` one state per motor, in ``motors`` order, each an array
        or a list [re E', im E', slip], by default the motors' own.  A
        zero voltage at a loaded node is a ``FeederError``; one whose
        magnitude is past the float range gives a non-finite current
        there, as numpy's ``abs`` did.
        """
        i = [0j] * self.n_nodes
        if states is None:
            states = [mu.state for mu in self.motors]
        try:
            for node, zl in self.zip_loads.items():
                vn = v[node]
                try:
                    vm = abs(vn)
                except OverflowError:
                    vm = math.inf
                i[node] += (zip_power(zl, vm) / vn).conjugate()
            for mu, x in zip(self.motors, states):
                if mu.active:
                    vn = v[mu.node]
                    i[mu.node] += (mu.motor.terminal_power(x, vn)
                                   / vn).conjugate()
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
        for p, c, z in self._edges:
            ibr = (v[p] - v[c]) / z
            bal[p] -= ibr
            bal[c] += ibr
        return -bal[0], np.array(bal[1:])

    def motor_derivatives(self, v: np.ndarray, states) -> np.ndarray:
        """Stacked motor state derivatives; zero for a motor switched off."""
        out = np.zeros((len(self.motors), InductionMotor.N_STATES))
        if self.active:
            for k, (mu, x) in enumerate(zip(self.motors, states)):
                if mu.active:
                    er, ei, s = x.tolist()
                    de, ds = mu.motor.derivatives(complex(er, ei), s,
                                                  complex(v[mu.node]))
                    out[k] = de.real, de.imag, ds
        return out.ravel()

    def _sweep_pass(self, v: list[complex], v_sub: complex,
                    states) -> tuple[list[complex], complex]:
        """One backward/forward pass from the node voltages ``v`` at the
        motor ``states``: the new node voltages and the substation source
        current."""
        acc = self.node_currents(v, states)
        # backward: accumulate branch currents toward the root; a child's
        # branches come after its own, so acc[c] is final
        for p, c in self._back:
            acc[p] += acc[c]
        # forward: push voltages out from the substation
        v_new = [v_sub] * self.n_nodes
        for p, c, z in self._edges:
            v_new[c] = v_new[p] - z * acc[c]
        return v_new, acc[0]

    def sweep(self, v_sub: complex, tol: float = 1e-8) -> complex:
        """Backward/forward sweep; returns the substation source current.

        The active motors' states are read once, as lists, for every
        pass."""
        v_sub = complex(v_sub)
        v = self.v.tolist()
        v[0] = v_sub
        states = [mu.state.tolist() if mu.active else None
                  for mu in self.motors]
        for _ in range(_SWEEP_ITERS):
            v_new, i_src = self._sweep_pass(v, v_sub, states)
            delta = max(map(abs, map(operator.sub, v_new, v)))
            v = v_new
            if delta < tol:
                self.v = np.array(v)
                return i_src
        self.v = np.array(v)
        raise FeederError("feeder sweep did not converge")

    def source_power(self, v_sub: complex) -> complex:
        return v_sub * self.sweep(v_sub).conjugate()

    # -- dynamics -----------------------------------------------------------

    def step_motors(self, h: float, tol: float) -> None:
        """Advance every active motor over ``h``, its terminal voltage held."""
        v = self.v.tolist()
        for mu in self.motors:
            if mu.active:
                er, ei, s = mu.state.tolist()
                e, s = rk_component_step(
                    mu.motor.derivatives, complex(er, ei), s, v[mu.node], h,
                    tol=tol)
                mu.state = np.array([e.real, e.imag, s])

    def initialize(self, v_sub: complex) -> None:
        """Fixed point of the node voltages and the motor equilibria.

        Each pass puts every active motor at its running equilibrium at
        its node voltage, then takes one backward/forward pass at those
        states, until a pass moves no node voltage by 1e-12.  The passes
        start from the last node profile, scaled by ``v_sub / v[0]``, so
        after a small change of the substation voltage they start next to
        the fixed point.  A feeder never solved holds all ones, and one
        switched off holds its bus voltage, so either starts from the
        flat profile at ``v_sub``, as does a profile that is not finite
        or whose ``v[0]`` is zero.
        """
        v_sub = complex(v_sub)
        v0 = complex(self.v[0])
        if v0 != 0 and np.all(np.isfinite(self.v)):
            v = (self.v * (v_sub / v0)).tolist()
            v[0] = v_sub
        else:
            v = [v_sub] * self.n_nodes
        for _ in range(_INIT_PASSES):
            for mu in self.motors:
                if mu.active:
                    mu.state = mu.equilibrium(v[mu.node])
            v_new, _ = self._sweep_pass(v, v_sub, None)
            delta = max(map(abs, map(operator.sub, v_new, v)))
            v = v_new
            if delta < 1e-12:
                self.v = np.array(v)
                return
        self.v = np.array(v)
        raise FeederError("feeder initialisation did not converge")


class DistributionSubSystem(SubSystem):
    """Feeders at one interface bus.  Input [e, f]; output consumed [P, Q].

    ``state()`` is the input, the output, every feeder's node voltages as
    [re, im] per node, then every motor's state, active or not, feeder by
    feeder.  An output left to be re-solved after a ``switch`` reads as
    nan in its two slots, and ``set_state`` leaves it to be re-solved
    again.  The ``active`` flags are topology, not state.
    """

    def __init__(self, feeders: list[DistributionFeeder], rk_tol: float):
        self.feeders = list(feeders)
        self.rk_tol = rk_tol
        self.current_input = [1.0, 0.0]
        self._output = [0.0, 0.0]
        self._channels = self.snapshot_channels(
            [([mu.name for mu in fd.motors], fd.n_nodes) for fd in feeders])

    @staticmethod
    def snapshot_channels(feeders: list[tuple[list[str], int]]
                          ) -> list[str]:
        """The snapshot's channel names, from each feeder's motor names
        and node count alone."""
        channels = []
        for k, (motors, n_nodes) in enumerate(feeders):
            channels += [f"{name}.slip" for name in motors]
            channels += [f"f{k}.v{node}" for node in range(n_nodes)]
        return channels

    def _v_sub(self) -> complex:
        return complex(self.current_input[0], self.current_input[1])

    def _total_power(self) -> complex:
        """Consumed power, every active feeder re-solved at the input."""
        v = self._v_sub()
        s = 0.0 + 0.0j
        for fd in self.feeders:
            if fd.active:
                s += fd.source_power(v)
        return s

    def set_input(self, u) -> None:
        """Take the bus voltage [e, f]; a feeder switched off floats at it."""
        super().set_input(u)
        for fd in self.feeders:
            if not fd.active:
                fd.v[:] = self._v_sub()

    def set_output(self, s: complex) -> None:
        """Report ``s`` as the consumed power until the next step or switch."""
        self._output = [s.real, s.imag]

    def initialize(self, inputs) -> None:
        self.set_input(inputs)
        v = self._v_sub()
        for fd in self.feeders:
            if fd.active:
                fd.initialize(v)
        self.set_output(self._total_power())

    def advance(self, h: float) -> None:
        v = self._v_sub()
        for fd in self.feeders:
            if fd.active:
                fd.sweep(v)
                fd.step_motors(h, tol=self.rk_tol)
        s = self._total_power()
        if not cmath.isfinite(s):
            raise OverflowError("distribution state is non-finite")
        self.set_output(s)

    def _resolve(self) -> None:
        """Re-solve an output left stale by a switch; it moves the nodes."""
        if self._output is None:
            self.set_output(self._total_power())

    def output(self) -> list[float]:
        self._resolve()
        return self._output.copy()

    def state(self) -> np.ndarray:
        out = [math.nan] * 2 if self._output is None else self._output
        return np.concatenate(
            [self.current_input, out]
            + [fd.v.view(float) for fd in self.feeders]
            + [mu.state for fd in self.feeders for mu in fd.motors])

    def set_state(self, z) -> None:
        z = self._state_vector(z)
        out = z[2:4].tolist()
        self._output = None if all(map(math.isnan, out)) else out
        k = 4
        for fd in self.feeders:
            fd.v = z[k:k + 2 * fd.n_nodes].view(complex)
            k += 2 * fd.n_nodes
        for fd in self.feeders:
            for mu in fd.motors:
                mu.state = z[k:k + 3]
                k += 3
        self.set_input(z[:2])

    def rotate(self, angle: float) -> None:
        """Turn the frame by ``angle``: the input voltage, every node
        voltage and every motor's E' turn by it."""
        c = cmath.exp(1j * angle)
        for fd in self.feeders:
            fd.v = fd.v * c
            for mu in fd.motors:
                er, ei, s = mu.state.tolist()
                e = complex(er, ei) * c
                mu.state = np.array([e.real, e.imag, s])
        v = c * self._v_sub()
        self.set_input([v.real, v.imag])

    def snapshot(self):
        """Each motor's slip, then each node's |V|, feeder by feeder.

        A stale output is re-solved first, as ``output()`` does, so the
        nodes read the same whichever of the two is read first."""
        self._resolve()
        values = []
        for fd in self.feeders:
            values += [mu.state.item(2) for mu in fd.motors]
            # the scalar modulus: numpy's vectorised abs rounds some
            # moduli differently from it
            values += map(abs, fd.v.tolist())
        return dict(zip(self._channels, values))

    def switch(self, action: str, params) -> None:
        """Apply a topology event; the next ``output()`` re-solves.  An
        unknown action or motor name is a ``ValueError``."""
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
            fd = self.feeders[int(params["index"])]
            fd.active = False
            fd.v[:] = self._v_sub()
        else:
            raise ValueError(f"unknown distribution event {action!r}")
        self._output = None

    def _find_motor(self, name: str) -> MotorUnit:
        for fd in self.feeders:
            for mu in fd.motors:
                if mu.name == name:
                    return mu
        raise ValueError(f"no motor named {name!r}")
