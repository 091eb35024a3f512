"""Co-simulation of coupled dynamical systems.

Sub-modules:

- ``linlab``: linear two-state coupled test system, exact step matrices
  and spectral-radius stability analysis of the parallel and series
  coupling schedules, and its two halves as sub-systems.
- ``cosim``: the macro-step loop every run shares, and the parallel and
  series exchange between a hub sub-system and its spokes.
- ``integrators``: trapezoidal DAE stepping and an adaptive explicit
  Runge-Kutta kernel.
- ``power_network``, ``machines``, ``transmission``, ``loads``,
  ``feeder``: phasor-domain transmission and distribution models.
- ``engine``: scenario-level combined transmission-distribution runs
  (series, parallel, monolithic) and the convergence detector.
- ``schema``: the typed reader of JSON input, scenario and network files.
- ``scenario_io`` / ``cli``: scenario files, CSV emission, command line.
"""

__version__ = "0.1.0"
