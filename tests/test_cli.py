import json
import os
from importlib import resources

import numpy as np
import pytest

from cotds import cli, transmission
from cotds.cli import EXIT_NUMERIC, EXIT_SCHEMA, EXIT_USAGE, main
from cotds.integrators import NewtonError
from cotds.scenario_io import fixture_path, load_scenario, read_csv


def run_cli(*argv):
    return main(list(argv))


class TestLinlab:
    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "0.1", "--t-end", "1", "--scheme", "series",
                     "--out", out)
        assert rc == 0
        log = read_csv(out)
        assert log.columns == ["x_a", "x_b", "x_a_exact", "x_b_exact"]
        assert len(log.times) == 11
        # both trajectories start from the same initial condition
        assert log.rows[0][0] == pytest.approx(log.rows[0][2])

    def test_stability_grid(self, tmp_path):
        out = str(tmp_path / "stab.csv")
        rc = run_cli("linlab", "stability", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h-min", "0.1", "--h-max", "1.0", "--points", "4",
                     "--out", out)
        assert rc == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[:4] == ["h", "rho_total", "rho_parallel", "rho_series"]
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data.shape[0] == 4

    def test_truncation_table(self, tmp_path):
        out = str(tmp_path / "trunc.csv")
        rc = run_cli("linlab", "truncation", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--out", out)
        assert rc == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        tau_total = data[:, 1]
        assert np.all(np.diff(tau_total) > 0)  # error grows with H

    def test_diverged_trajectory_exits_numeric(self, tmp_path, capsys):
        # parallel well past its stability threshold (about 0.9 here)
        out = str(tmp_path / "div.csv")
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "5", "--t-end", "20000", "--scheme", "parallel",
                     "--out", out)
        assert rc == EXIT_NUMERIC
        assert "diverged" in capsys.readouterr().err
        log = read_csv(out)
        assert 1 < len(log.times) < 4001
        assert np.all(np.isfinite(log.as_array()))

    def test_zero_micro_steps_is_usage_error(self):
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "0.1", "--n", "0", "--scheme", "series")
        assert rc == EXIT_USAGE

    def test_missing_flag_is_usage_error(self):
        assert run_cli("linlab", "simulate", "--h", "0.1",
                       "--scheme", "series") == 1

    def test_negative_h_is_usage_error(self):
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "-0.1", "--scheme", "series")
        assert rc == 1

    @pytest.mark.parametrize("cmd, flags", [
        ("stability", ["--h-min", "0"]),
        ("stability", ["--h-min", "-0.1"]),
        ("stability", ["--n", "0"]),
        ("truncation", ["--h-min", "0"]),
        ("truncation", ["--n", "0"]),
    ])
    def test_bad_sweep_input_is_usage_error(self, tmp_path, capsys, cmd,
                                            flags):
        rc = run_cli("linlab", cmd, "--lambda-a", "-1", "--lambda-b", "-2",
                     "--ka", "2", "--kb", "2", *flags,
                     "--out", str(tmp_path / "out.csv"))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestRunAndCompare:
    def run_fixture(self, tmp_path, sub, method="series"):
        out = str(tmp_path / sub)
        rc = run_cli("cotds", "run", fixture_path("testcase1"),
                     "--method", method, "--h", "0.01", "--t-end", "0.3",
                     "--out-dir", out)
        assert rc == 0
        return out

    def test_run_produces_artifacts(self, tmp_path):
        out = self.run_fixture(tmp_path, "run1")
        assert os.path.isfile(os.path.join(out, "run.csv"))
        assert os.path.isfile(os.path.join(out, "summary.txt"))
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "verdict: Converged" in text

    def test_compare_identical_runs(self, tmp_path, capsys):
        a = self.run_fixture(tmp_path, "a")
        b = self.run_fixture(tmp_path, "b")
        rc = run_cli("compare", a, b, "--out-dir", str(tmp_path))
        assert rc == 0
        assert "worst max-abs deviation: 0.0" in capsys.readouterr().out

    def test_compare_deviations_file(self, tmp_path):
        a = self.run_fixture(tmp_path, "a", method="series")
        b = self.run_fixture(tmp_path, "b", method="parallel")
        rc = run_cli("compare", a, b, "--out-dir", str(tmp_path))
        assert rc == 0
        with open(str(tmp_path / "deviations.csv")) as fh:
            header = fh.readline().strip()
        assert header == "channel,max_abs,rms"

    def test_compare_missing_dir(self, tmp_path):
        a = self.run_fixture(tmp_path, "a")
        assert run_cli("compare", a, str(tmp_path / "nope")) == 1

    def test_missing_scenario_is_usage_error(self):
        assert run_cli("cotds", "run", "/no/such/file.json") == 1

    def test_schema_error_exit_code(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"name": "x", "bogus": True}, fh)
        assert run_cli("cotds", "run", bad) == 2

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "env_out")
        monkeypatch.setenv("COTDS_OUT_DIR", env_dir)
        rc = run_cli("cotds", "run", fixture_path("testcase1"),
                     "--h", "0.01", "--t-end", "0.1",
                     "--out-dir", str(tmp_path / "flag_out"))
        assert rc == 0
        assert os.path.isfile(os.path.join(env_dir, "run.csv"))

    def test_summary_reports_newton_counters(self, tmp_path):
        # the full testcase1 series run: 2500 trapezoidal steps of T
        out = str(tmp_path / "run")
        assert run_cli("cotds", "run", fixture_path("testcase1"),
                       "--method", "series", "--out-dir", out) == 0
        with open(os.path.join(out, "summary.txt")) as fh:
            summary = dict(line.rstrip("\n").split(": ", 1) for line in fh)
        assert summary["verdict"] == "Converged"
        assert summary["steps"] == "2501"
        counts = {k.split(".")[-1]: int(v) for k, v in summary.items()
                  if k.startswith("newton.T.")}
        assert set(counts) == {"jacobian_builds", "residual_evals",
                               "reused_steps", "fallbacks"}
        # one residual evaluation per step at least; a full Newton with a
        # fresh 36-column Jacobian per iteration took 51 784
        assert 2500 <= counts["residual_evals"] <= 3 * 2500
        # a Jacobian build per iterating step would be over a thousand
        assert counts["jacobian_builds"] <= 25
        assert counts["reused_steps"] >= 500

    def test_no_feeders_is_schema_error(self, tmp_path):
        with open(fixture_path("testcase1")) as fh:
            doc = json.load(fh)
        doc["feeders"], doc["events"] = [], []
        path = str(tmp_path / "empty.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run_cli("cotds", "run", path) == EXIT_SCHEMA

    def test_no_feeders_built_in_code_is_usage_error(self, tmp_path,
                                                     monkeypatch, capsys):
        def load(path):
            s = load_scenario(path)
            s.feeders, s.events = [], []
            return s

        monkeypatch.setattr(cli, "load_scenario", load)
        out = str(tmp_path / "out")
        rc = run_cli("cotds", "run", fixture_path("testcase1"),
                     "--out-dir", out)
        assert rc == EXIT_USAGE
        assert "no feeders" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_truncated_run_exits_numeric(self, tmp_path, monkeypatch, capsys):
        advance = transmission.TransmissionSubSystem.advance
        calls = []

        def failing_advance(self, h):
            calls.append(h)
            if len(calls) == 5:
                raise NewtonError("Newton did not converge", 1.0)
            advance(self, h)

        monkeypatch.setattr(transmission.TransmissionSubSystem, "advance",
                            failing_advance)
        out = str(tmp_path / "run")
        rc = run_cli("cotds", "run", fixture_path("testcase1"),
                     "--h", "0.01", "--t-end", "0.1", "--out-dir", out)
        assert rc == EXIT_NUMERIC
        # the truncated log and its cause are still written
        assert len(read_csv(os.path.join(out, "run.csv")).times) == 5
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "verdict: Diverged" in text
        assert "failure: sub-system failure at t=0.05" in text
        assert "sub-system failure at t=0.05" in capsys.readouterr().err


def infeasible_testcase1(tmp_path, motor, mva_scale, event_time=None):
    """testcase1 as a file, one motor rescaled past what it can carry."""
    with open(fixture_path("testcase1")) as fh:
        doc = json.load(fh)
    for fd in doc["feeders"]:
        for m in fd["composition"]["motors"]:
            if m["name"] == motor:
                m["machine"]["mva_scale"] = mva_scale
    if event_time is not None:
        doc["events"][0]["time"] = event_time
    path = str(tmp_path / "infeasible.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestInfeasibleMotor:
    def test_at_start_exits_numeric(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = run_cli("cotds", "run",
                     infeasible_testcase1(tmp_path, "bus5_im1", 0.01),
                     "--h", "0.01", "--t-end", "0.05", "--out-dir", out)
        assert rc == EXIT_NUMERIC
        assert "motor bus5_im1: " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_at_connect_event_truncates(self, tmp_path, capsys):
        # testcase1's one event connects bus6_im2, here at t = 0.02 s
        out = str(tmp_path / "run")
        rc = run_cli("cotds", "run",
                     infeasible_testcase1(tmp_path, "bus6_im2", 1e-4, 0.02),
                     "--h", "0.01", "--t-end", "0.05", "--out-dir", out)
        assert rc == EXIT_NUMERIC
        assert len(read_csv(os.path.join(out, "run.csv")).times) == 3
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "verdict: Diverged" in text
        assert ("failure: sub-system failure at t=0.02: motor bus6_im2: "
                in text)
        assert "motor bus6_im2: " in capsys.readouterr().err


@pytest.mark.parametrize("event", [
    {"target": "D9", "action": "connect_feeder", "params": {"index": 1}},
    {"target": "T", "action": "connect_feeder", "params": {"index": 1}},
    {"target": "D2", "action": "trip", "params": {}},
    {"target": "D2", "action": "connect_motor", "params": {"name": "nope"}},
    {"target": "D2", "action": "disconnect_motor", "params": {"index": 0}},
    {"target": "D2", "action": "connect_feeder", "params": {"index": 2}},
    {"target": "D2", "action": "disconnect_feeder",
     "params": {"index": 0, "name": "f1_im"}},
], ids=["unknown_bus", "transmission", "unknown_action", "unknown_motor",
        "wrong_param", "feeder_index", "extra_param"])
@pytest.mark.parametrize("method", ["series", "monolithic"])
def test_bad_event_is_schema_error(tmp_path, event, method):
    with open(fixture_path("testcase2")) as fh:
        doc = json.load(fh)
    doc["events"] = [dict(event, time=0.02)]
    path = str(tmp_path / "bad_event.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    rc = run_cli("cotds", "run", path, "--method", method,
                 "--t-end", "0.05", "--out-dir", out)
    assert rc == EXIT_SCHEMA
    assert not os.path.exists(out)  # rejected before any numerics ran


def _network_without_branches(tmp_path):
    with open(fixture_path("testcase2")) as fh:
        name = json.load(fh)["transmission"]
    net = json.loads((resources.files("cotds.data") / f"{name}.json")
                     .read_text())
    del net["branches"]
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump(net, fh)
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda doc, tmp: doc["feeders"][1].update(bus=99),
     "feeder bound to unknown bus 99"),
    (lambda doc, tmp: doc.update(transmission="no_such_network"),
     "transmission 'no_such_network': No such file or directory"),
    (lambda doc, tmp: doc.update(transmission=str(tmp)),
     "Is a directory"),
    (lambda doc, tmp: doc.update(transmission=_network_without_branches(tmp)),
     "has no 'branches'"),
    (lambda doc, tmp: doc["feeders"][0]["composition"].update(
        static_fraction=1.5), "feeders[0].composition: static_fraction"),
    (lambda doc, tmp: doc["feeders"][0]["branches"][0].update(r=0.0, x=0.0),
     "feeders[0].branches[0]: zero impedance"),
], ids=["unknown_bus", "unknown_network", "network_is_directory",
        "network_without_branches", "static_fraction", "zero_impedance"])
def test_bad_scenario_is_schema_error(tmp_path, capsys, edit, message):
    with open(fixture_path("testcase2")) as fh:
        doc = json.load(fh)
    doc["events"] = []
    edit(doc, tmp_path)
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    assert run_cli("cotds", "run", path, "--out-dir", out) == EXIT_SCHEMA
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)
