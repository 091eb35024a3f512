"""The benchmark's workloads still run on the package as it stands.

``bench/workloads.py`` calls the package by name (``build_subsystems``
and its 3-tuple, ``iterative_td_powerflow_init``, ``run_scenario``,
``build_step_matrix`` and the rest); a name it calls that goes away
would only show when the benchmark fails.  These tests load the module
from its file, without adding ``bench/`` to the path, and run each workload's set-up,
one linear study and one scenario run, each with the output check the
benchmark makes.  The CLI unit is left out: it writes under
``.bench_out/``.
"""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "bench"
             / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_setup_runs(workloads):
    for workload in workloads.WORKLOADS.values():
        workload.setup(1)()


def run_unit(unit) -> float:
    """The unit's timed calls, then its check: the worst deviation."""
    return unit.check([part() for part in unit.parts])


def test_first_linlab_unit_passes_its_check(workloads):
    unit = workloads.WORKLOADS["linlab-map"].round(1, 0)[0]
    assert run_unit(unit) <= 1e-9


def test_scenario_unit_matches_the_reference(workloads):
    unit = workloads.scenario_unit("testcase2", "series", 0.037)
    tolerance = workloads.reference().meta["runs"][unit.label]["tolerance"]
    assert run_unit(unit) <= tolerance
