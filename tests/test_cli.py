import json
import os

import numpy as np
import pytest

from cotds.cli import main
from cotds.scenario_io import fixture_path, read_csv


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

    def test_missing_flag_is_usage_error(self):
        assert run_cli("linlab", "simulate", "--h", "0.1",
                       "--scheme", "series") == 1

    def test_negative_h_is_usage_error(self):
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "-0.1", "--scheme", "series")
        assert rc == 1


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
