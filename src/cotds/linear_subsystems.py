"""Half-system adapters wrapping the linear test system for ``cosim``.

Splitting the coupled linear system into its A half (implicit trapezoidal
over the macro step) and B half (n explicit Euler micro steps) and running
them through ``cosim.run_cosimulation``, A as the hub and B as its one
spoke, must reproduce the monolithic ``linlab`` co-simulation steppers
exactly: both call the same half steps under the same exchange schedule.
"""

from __future__ import annotations

import numpy as np

from .cosim import SubSystem
from .linlab import (LinearCoupledParams, StateVec2, euler_half_step,
                     trapezoidal_half_step)

__all__ = ["LinearHalfA", "LinearHalfB", "make_linear_pair"]


class LinearHalfA(SubSystem):
    """x' = lambda*x + u solved by one implicit trapezoidal step per macro step."""

    def __init__(self, lam: float, k_out: float, x0: float, u0: float):
        self.lam = lam
        self.k_out = k_out
        self.x = x0
        self.current_input = np.array([u0])

    def initialize(self, inputs):
        self.set_input(inputs)
        self.x = -self.current_input[0] / self.lam  # steady state for this input

    def advance(self, h):
        self.x = trapezoidal_half_step(self.lam, h, self.x,
                                       self.current_input[0])

    def output(self):
        return np.array([self.k_out * self.x])

    def snapshot(self):
        return {"x": self.x}


class LinearHalfB(SubSystem):
    """x' = lambda*x + u solved by n explicit Euler micro steps per macro step."""

    def __init__(self, lam: float, k_out: float, x0: float, u0: float,
                 n_micro: int = 100):
        self.lam = lam
        self.k_out = k_out
        self.x = x0
        self.n_micro = n_micro
        self.current_input = np.array([u0])

    def initialize(self, inputs):
        self.set_input(inputs)
        self.x = -self.current_input[0] / self.lam

    def advance(self, h):
        self.x = euler_half_step(self.lam, h, self.n_micro, self.x,
                                 self.current_input[0])
        if not np.isfinite(self.x):
            raise OverflowError("B half-system state overflowed")

    def output(self):
        return np.array([self.k_out * self.x])

    def snapshot(self):
        return {"x": self.x}


def make_linear_pair(p: LinearCoupledParams, x0: StateVec2, n_micro: int = 100):
    """The hub A and its spoke B realizing the coupled test system.

    A outputs y_a = k_b*x_a, B's input; B outputs y_b = -k_a*x_b, A's
    input.  Initial inputs match the initial outputs, so the pair starts
    interface-consistent at any x0.
    """
    a = LinearHalfA(p.lambda_a, p.k_b, x0.x_a, u0=-(p.k_a * x0.x_b))
    b = LinearHalfB(p.lambda_b, -p.k_a, x0.x_b, u0=p.k_b * x0.x_a,
                    n_micro=n_micro)
    return {"A": a, "B": b}
