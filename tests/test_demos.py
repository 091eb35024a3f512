"""Each demo script runs to its end on the current API.

The demos are not imported by the package, so nothing else would notice
a change to what they call.  Each ``main()`` runs with its output
directory moved under ``tmp_path``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, written", [
    ("demo_cotds_run", ["testcase1_monolithic.csv", "testcase1_series.csv",
                        "testcase1_parallel.csv"]),
    ("demo_linear_analysis", ["stability_stiff.csv", "truncation_stiff.csv",
                              "stability_mild.csv", "truncation_mild.csv"]),
])
def test_demo_writes_its_tables(name, written, tmp_path, monkeypatch,
                                capsys):
    demo = load(name)
    monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
    out = capsys.readouterr().out
    for file in written:
        assert (tmp_path / file).is_file()
        assert f"wrote {tmp_path / file}" in out


def test_feeder_sweep_matches_dense_solve(capsys):
    load("demo_feeder_sweep").main()
    out = capsys.readouterr().out
    found = re.search(r"max node-voltage discrepancy: (\S+)", out)
    assert found and float(found.group(1)) < 1e-10
