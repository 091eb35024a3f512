import importlib
import json
import math
import os
import pkgutil
import shlex
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import cotds
from cotds import cli, engine, feeder, transmission
from cotds.cli import EXIT_NUMERIC, EXIT_SCHEMA, EXIT_USAGE, main
from cotds.integrators import NewtonError, NumericFailure
from cotds.scenario_io import fixture_path, load_scenario, read_csv


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def readme_cli_commands():
    """The ``cotds ...`` commands of the README's CLI block, as argv."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cotds ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # run from an empty directory, the files the block names taken from
    # the repository root, as its comment says
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "linlab", "linlab", "linlab", "cotds", "cotds", "compare"]
    for argv in commands:
        argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)


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

    @pytest.mark.parametrize("scheme", ["parallel", "series", "total"])
    def test_non_finite_start_diverges_at_t_0(self, tmp_path, capsys,
                                              scheme):
        # k_b * x_a overflows, so the t = 0 record is not finite
        out = str(tmp_path / "div.csv")
        rc = run_cli("linlab", "simulate", "--lambda-a", "-1",
                     "--lambda-b", "-2", "--ka", "2", "--kb", "2",
                     "--h", "0.1", "--t-end", "1", "--x0", "1e308", "1",
                     "--scheme", scheme, "--out", out)
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric error: trajectory diverged at t=0; wrote 0 rows\n")
        with open(out) as fh:
            assert fh.read() == "t,x_a,x_b,x_a_exact,x_b_exact\n"

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

    @pytest.mark.parametrize("h_min, h_max, message", [
        # the growth factor is finite, the step matrix's entries are not
        ("236900", "237000", "the step matrix overflows at H=236900.0"),
        # the growth factor itself overflows
        ("249900", "250000",
         "the B half's Euler growth factor overflows at H=249900.0"),
    ], ids=["entries", "growth_factor"])
    def test_overflowing_stability_sweep_exits_numeric(self, tmp_path,
                                                       capsys, h_min, h_max,
                                                       message):
        out = tmp_path / "stab.csv"
        rc = run_cli("linlab", "stability", "--lambda-a", "-5",
                     "--lambda-b", "-0.5", "--ka", "0.6", "--kb", "5",
                     "--h-min", h_min, "--h-max", h_max, "--points", "2",
                     "--out", str(out))
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("cmd, computation, flags", [
        ("simulate", "simulate_linear", ["--h", "0.1", "--scheme", "series"]),
        ("stability", "stability_sweep", []),
        ("truncation", "local_truncation_error", []),
    ])
    def test_value_error_in_computation_propagates(self, tmp_path,
                                                   monkeypatch, cmd,
                                                   computation, flags):
        # only the argument checks are usage errors; a ValueError from
        # linlab's numerics is a bug
        def broken(*args, **kwargs):
            raise ValueError("bug in the computation")

        monkeypatch.setattr(cli.linlab, computation, broken)
        with pytest.raises(ValueError, match="bug in the computation"):
            run_cli("linlab", cmd, "--lambda-a", "-1", "--lambda-b", "-2",
                    "--ka", "2", "--kb", "2", *flags,
                    "--out", str(tmp_path / "out.csv"))


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

    def test_compare_past_the_end_of_run_b_is_usage_error(self, tmp_path,
                                                          capsys):
        # b stops at 0.096 s: its last value held flat would be compared
        # with a's records to 0.3 s
        a = self.run_fixture(tmp_path, "a")
        b = str(tmp_path / "b")
        assert run_cli("cotds", "run", fixture_path("testcase1"),
                       "--h", "0.012", "--t-end", "0.1", "--out-dir", b) == 0
        capsys.readouterr()
        out = str(tmp_path / "cmp")
        assert run_cli("compare", a, b, "--resample", "--out-dir", out) == (
            EXIT_USAGE)
        assert capsys.readouterr().err == (
            "error: run a ends at t=0.3, after run b's end at t=0.096; "
            "give the shorter run first\n")
        assert not os.path.exists(out)
        assert run_cli("compare", b, a, "--resample", "--out-dir", out) == 0

    def test_compare_missing_dir(self, tmp_path):
        a = self.run_fixture(tmp_path, "a")
        assert run_cli("compare", a, str(tmp_path / "nope")) == 1

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize("flags", [[], ["--resample"]],
                             ids=["same_grid", "resample"])
    def test_compare_run_without_records_is_usage_error(self, tmp_path,
                                                         capsys, first,
                                                         flags):
        # a run that diverges at t = 0 writes run.csv's header alone;
        # numpy once warned that it read no data, then failed on it
        a = self.run_fixture(tmp_path, "a")
        with open(os.path.join(a, "run.csv")) as fh:
            header = fh.readline()
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "run.csv").write_text(header)
        runs = [str(empty), a] if first else [a, str(empty)]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("compare", *runs, *flags,
                         "--out-dir", str(tmp_path))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: the run under {empty} has no records\n")
        assert not (tmp_path / "deviations.csv").exists()

    def test_empty_out_dir_is_working_directory(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_cli("cotds", "run", fixture_path("testcase2"),
                     "--t-end", "0.05", "--out-dir", "")
        assert rc == 0
        assert (tmp_path / "run.csv").is_file()
        assert run_cli("compare", ".", ".", "--out-dir", "") == 0
        assert (tmp_path / "deviations.csv").is_file()

    def test_unknown_channel_leaves_no_output_directory(self, tmp_path,
                                                         capsys):
        with open(fixture_path("testcase2")) as fh:
            doc = json.load(fh)
        doc["outputs"]["channels"] = ["D2.out[0]", "D2.nope"]
        path = str(tmp_path / "nope.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "out")
        rc = run_cli("cotds", "run", path, "--t-end", "0.05",
                     "--out-dir", out)
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "schema error: outputs.channels: unknown channels ['D2.nope']\n")
        assert not os.path.exists(out)

    def test_missing_scenario_is_usage_error(self):
        assert run_cli("cotds", "run", "/no/such/file.json") == 1

    def test_schema_error_exit_code(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"name": "x", "bogus": True}, fh)
        assert run_cli("cotds", "run", bad) == 2

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

    def test_failed_resolve_after_event_exits_numeric(self, tmp_path,
                                                      monkeypatch):
        # testcase1's motor connect moved to t = 0.02 s; the feeders'
        # re-solve after it fails, in the step that ends at t = 0.03 s
        with open(fixture_path("testcase1")) as fh:
            doc = json.load(fh)
        doc["events"][0]["time"] = 0.02
        path = str(tmp_path / "early_event.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)

        def failing_sweep(self, v_sub):
            raise feeder.FeederError("sweep refused")

        original = feeder.DistributionSubSystem.switch

        def switch(self, action, params):
            # a connect_motor switch itself sweeps nothing
            monkeypatch.setattr(feeder.DistributionFeeder, "sweep",
                                failing_sweep)
            original(self, action, params)

        monkeypatch.setattr(feeder.DistributionSubSystem, "switch", switch)
        out = str(tmp_path / "run")
        rc = run_cli("cotds", "run", path, "--method", "parallel",
                     "--h", "0.01", "--t-end", "0.05", "--out-dir", out)
        assert rc == EXIT_NUMERIC
        assert len(read_csv(os.path.join(out, "run.csv")).times) == 3
        with open(os.path.join(out, "summary.txt")) as fh:
            assert ("failure: sub-system failure at t=0.03: sweep refused"
                    in fh.read())


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


class TestEventRule:
    """An event applies only if a macro step starts at or after it."""

    def power(self, tmp_path, path, *flags):
        out = str(tmp_path / "run")
        rc = run_cli("cotds", "run", path, *flags, "--out-dir", out)
        assert rc == 0
        log = read_csv(os.path.join(out, "run.csv"))
        return log.times, log.channel("D2.out[0]")

    def test_t_end_cut_drops_event_no_step_follows(self, tmp_path):
        # at H 0.006 the last of 167 steps starts at 0.996 s, before
        # testcase2's connect_feeder at 1.0 s: the run stays at rest
        times, p = self.power(tmp_path, fixture_path("testcase2"),
                              "--t-end", "1.0")
        assert len(times) == 168
        assert np.ptp(p) < 1e-9

    def test_t_end_cut_keeps_event_a_step_follows(self, tmp_path):
        # at H 0.1 the last of 11 steps starts at 1.0 s, with the feeder
        # connected: its load shows in the last record alone
        times, p = self.power(tmp_path, fixture_path("testcase2"),
                              "--h", "0.1", "--t-end", "1.1")
        assert times[-1] == pytest.approx(1.1)
        assert np.ptp(p[:-1]) < 1e-5
        assert p[-1] - p[-2] > 0.05

    def test_event_no_step_follows_is_usage_error(self, tmp_path, capsys):
        with open(fixture_path("testcase2")) as fh:
            doc = json.load(fh)
        doc["events"][0]["time"] = 4.9
        path = str(tmp_path / "late_event.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "run")
        # t_end 5 at H 0.7 takes 7 steps, the last from 4.2 s
        rc = run_cli("cotds", "run", path, "--h", "0.7", "--out-dir", out)
        assert rc == EXIT_USAGE
        assert "event at t=4.9 outside [0, 4.2]" in capsys.readouterr().err
        assert not os.path.exists(out)


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


def _edited_network(tmp_path, edit):
    """testcase2's network, edited by ``edit(net)``, written to a file."""
    with open(fixture_path("testcase2")) as fh:
        name = json.load(fh)["transmission"]
    net = json.loads((resources.files("cotds.data") / f"{name}.json")
                     .read_text())
    edit(net)
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump(net, fh)
    return path


# every generator parameter the machine model divides by; each once made
# a run exit 1 with a ZeroDivisionError traceback when zero (the exciter
# gain with a nan Newton residual at t = 0.006, exit 3)
GENERATOR_DIVISORS = ["h", "xdp", "xqp", "td0p", "tq0p", "exciter.gain",
                      "exciter.time_const", "governor.droop",
                      "governor.time_const"]
# generator and branch numbers with a sign rule that no division needs;
# each at -1 once ran and exited 0, and v_set at 0 or -1 failed in the
# power flow (exit 3) instead of naming its field
SIGN_RULES = [(path, value, "be positive") for path in ("xd", "xq", "v_set")
              for value in (0, -1)] + [("d", -1, "not be negative")]


def _zero_generator_field(path, value=0):
    """An edit that sets the first generator's ``path`` to ``value``."""
    def edit(net):
        *parents, key = path.split(".")
        d = net["generators"][0]
        for parent in parents:
            d = d[parent]
        d[key] = value
    return edit


def _network_without_branches(tmp_path):
    return _edited_network(tmp_path, lambda net: net.pop("branches"))


@pytest.mark.parametrize("edit, message", [
    (lambda net: net.update(loads=[1, 2]),
     "loads: expected an object, got list"),
    (lambda net: net.update(buses=5), "buses: expected a list, got int"),
    (lambda net: net["branches"][0].update(to=99),
     "branches[0].to: unknown bus 99"),
    (lambda net: net["branches"][0].update(r="0.01"),
     "branches[0].r: expected a finite number, got '0.01'"),
    (lambda net: net.update(name="wscc9"), "unknown keys ['name']"),
    (lambda net: net.update(f_hz=0), "f_hz: must be positive, got 0.0"),
    (lambda net: net["branches"][0].update(r=0, x=0),
     "branches[0]: zero impedance (r = x = 0)"),
    (lambda net: net["branches"][0].update(r=-1),
     "branches[0].r: must not be negative, got -1.0"),
    (lambda net: net["branches"][0].update(b=-1),
     "branches[0].b: must not be negative, got -1.0"),
] + [(_zero_generator_field(path), f"generators[0].{path}: must be "
      "positive, got 0.0") for path in GENERATOR_DIVISORS] + [
    (_zero_generator_field(path, value), f"generators[0].{path}: must "
     f"{rule}, got {float(value)!r}") for path, value, rule in SIGN_RULES],
    ids=["loads_a_list", "buses_a_number", "branch_to_unknown_bus",
         "branch_quoted_number", "name", "f_hz", "zero_impedance",
         "negative_r", "negative_b", *GENERATOR_DIVISORS,
         *(f"{path}={value}" for path, value, _ in SIGN_RULES)])
def test_malformed_network_is_schema_error(tmp_path, capsys, edit, message):
    with open(fixture_path("testcase2")) as fh:
        doc = json.load(fh)
    net = _edited_network(tmp_path, edit)
    doc.update(transmission=net, events=[])
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    assert run_cli("cotds", "run", path, "--out-dir", out) == EXIT_SCHEMA
    assert (capsys.readouterr().err
            == f"schema error: transmission {net!r}: {message}\n")
    assert not os.path.exists(out)


# a motor's parameters each with its rule, and a value that breaks it;
# rr, h_m and mva_scale at zero once raised ZeroDivisionError, exit 1
MACHINE_RULES = [("rr", 0, "be positive"), ("h_m", 0, "be positive"),
                 ("mva_scale", 0, "be positive"), ("xm", -1, "be positive"),
                 ("xr", -1, "be positive"), ("rs", -1, "not be negative"),
                 ("xs", -1, "not be negative")]


def _edit_machine(k, **values):
    """An edit that sets the machine of feeder ``k``'s first motor."""
    def edit(doc, tmp):
        doc["feeders"][k]["composition"]["motors"][0]["machine"].update(
            values)
    return edit


def _shares(*shares):
    """An edit that gives feeder 0 one copy of its motor per share."""
    def edit(doc, tmp):
        motors = doc["feeders"][0]["composition"]["motors"]
        motors[:] = [{**motors[0], "name": f"im{i}", "share": share}
                     for i, share in enumerate(shares)]
    return edit


def _events(*events):
    """An edit that sets the events, each (time, action, params) on D2."""
    def edit(doc, tmp):
        doc["events"] = [dict(time=t, target="D2", action=action,
                              params=params) for t, action, params in events]
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc, tmp: doc["feeders"][1].update(bus=99),
     "feeder bound to unknown bus 99"),
    (lambda doc, tmp: doc.update(transmission="no_such_network"),
     "transmission 'no_such_network': No such file or directory"),
    (lambda doc, tmp: doc.update(transmission=str(tmp)),
     "Is a directory"),
    (lambda doc, tmp: doc.update(transmission=_network_without_branches(tmp)),
     "branches: missing"),
    (lambda doc, tmp: doc["feeders"][0]["composition"].update(
        static_fraction=1.5), "feeders[0].composition: static_fraction"),
    (lambda doc, tmp: doc["feeders"][0]["branches"][0].update(r=0.0, x=0.0),
     "feeders[0].branches[0]: zero impedance"),
    (lambda doc, tmp: doc["feeders"][1]["branches"][0].update(r=-1),
     "feeders[1].branches[0].r: must not be negative, got -1.0"),
    (lambda doc, tmp: doc["feeders"][0]["loads"][0].update(node=7),
     "feeders[0].loads[0].node: 7 is not a node of the feeder"),
    (lambda doc, tmp: doc["feeders"][1]["composition"]["motors"][0].update(
        name="f1_im"), "'f1_im' is already a motor on bus 2"),
    # ZipLoadParams' tolerance is the file's: fractions 5e-10 off once
    # parsed and then failed to build, exit 1
    (lambda doc, tmp: doc["feeders"][0]["composition"].update(
        zip_fractions=[0.3, 0.3, 0.4 + 5e-10]),
     "feeders[0].composition: ZIP fractions must sum to 1"),
    (_shares(1.5, -0.5),
     "feeders[0].composition.motors[1].share: must be positive, got -0.5"),
    (_shares(1.0, 0.0),
     "feeders[0].composition.motors[1].share: must be positive, got 0.0"),
    (lambda doc, tmp: doc["feeders"][0]["composition"].update(
        static_fraction=1.0),
     "feeders[0].composition: the motors' budget, (1 - static_fraction) "
     "times the loads' total p, must be positive, got 0.0"),
    (lambda doc, tmp: doc["feeders"][1]["loads"][0].update(p=-1.0),
     "feeders[1].composition: the motors' budget"),
    (_events((0.5, "connect_feeder", {"index": 0})),
     "events[0]: connect_feeder 0 on D2, which is already on"),
    (_events((0.5, "disconnect_feeder", {"index": 1})),
     "events[0]: disconnect_feeder 1 on D2, which is already off"),
    (_events((0.5, "connect_motor", {"name": "f1_im"})),
     "events[0]: connect_motor 'f1_im' on D2, which is already on"),
    # in time order, not as listed: the disconnect comes first
    (_events((1.0, "connect_feeder", {"index": 1}),
             (0.5, "disconnect_feeder", {"index": 1})),
     "events[1]: disconnect_feeder 1 on D2, which is already off"),
    # ties as listed
    (_events((0.5, "connect_feeder", {"index": 1}),
             (0.5, "connect_feeder", {"index": 1})),
     "events[1]: connect_feeder 1 on D2, which is already on"),
] + [(_edit_machine(1, **{key: value}), f"feeders[1].composition.motors[0]"
      f".machine.{key}: must {rule}, got {float(value)!r}")
     for key, value, rule in MACHINE_RULES] + [
    # the two pairs that divide by zero though no one of them does
    (_edit_machine(0, xm=0, xr=0), "feeders[0].composition.motors[0]"
     ".machine.xm: must be positive, got 0.0"),
    (_edit_machine(0, rs=0, xs=0, xm=0), "feeders[0].composition.motors[0]"
     ".machine.xm: must be positive, got 0.0"),
], ids=["unknown_bus", "unknown_network", "network_is_directory",
        "network_without_branches", "static_fraction", "zero_impedance",
        "negative_r",
        "load_off_the_tree", "motor_name_repeated", "zip_fractions_rounding",
        "motor_share_negative", "motor_share_zero", "motor_budget_zero",
        "motor_budget_negative", "connect_connected_feeder",
        "disconnect_disconnected_feeder", "connect_running_motor",
        "events_in_time_order", "events_tied_as_listed",
        *(f"machine_{key}" for key, _, _ in MACHINE_RULES),
        "machine_xm_xr", "machine_rs_xs_xm"])
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


# run parameters that are not finite and positive: testcase1 with no
# events, as each of them once ran on to a misleading verdict or error
BAD_RUN = [("rk_tol", 0.0), ("rk_tol", -1e-6), ("rk_tol", math.nan),
           ("h_macro", math.inf), ("h_macro", math.nan),
           ("t_end", math.nan), ("t_end", math.inf)]


@pytest.mark.parametrize("field, value", BAD_RUN,
                         ids=[f"{f}={v}" for f, v in BAD_RUN])
@pytest.mark.parametrize("method", ["series", "monolithic"])
def test_bad_run_parameter_is_schema_error(tmp_path, capsys, field, value,
                                           method):
    with open(fixture_path("testcase1")) as fh:
        doc = json.load(fh)
    doc["events"] = []
    doc["run"].update(t_end=0.06, method=method)
    doc["run"][field] = value
    path = str(tmp_path / "bad_run.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)  # NaN and Infinity, as Python's json reads them
    out = str(tmp_path / "out")
    assert run_cli("cotds", "run", path, "--out-dir", out) == EXIT_SCHEMA
    assert f"run.{field}: must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def _number_paths(doc, path=()):
    """The path of every number in a JSON document, as keys and indices."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _number_paths(value, path + (key,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def test_every_number_at_zero_or_minus_one_exits_cleanly(tmp_path, capsys):
    # Each number of testcase2 and of its network set to 0 and to -1, one
    # at a time, and the motor's two sets of parameters that divide by
    # zero together: a short run ends in success, a schema error or a
    # numeric failure (exit 0, 2 or 3), never in an exception.  Zeroed
    # generator, motor and frequency parameters once escaped as
    # ZeroDivisionError.  The second feeder connects at t = 0, not 1 s, so
    # that the short run reaches its numbers too.
    with open(fixture_path("testcase2")) as fh:
        scenario = json.load(fh)
    scenario["events"][0]["time"] = 0.0
    network = json.loads((resources.files("cotds.data")
                          / f"{scenario['transmission']}.json").read_text())
    machine = ("feeders", 0, "composition", "motors", 0, "machine")
    cases = [("scenario", [path], value) for path in _number_paths(scenario)
             for value in (0, -1)]
    cases += [("network", [path], value) for path in _number_paths(network)
              for value in (0, -1)]
    cases += [("scenario", [machine + (key,) for key in keys], 0)
              for keys in (("xm", "xr"), ("rs", "xs", "xm"))]
    escaped, codes = [], {}
    for k, (which, paths, value) in enumerate(cases):
        docs = {"scenario": json.loads(json.dumps(scenario)),
                "network": json.loads(json.dumps(network))}
        for path in paths:
            _set(docs[which], path, value)
        net_path = str(tmp_path / f"net{k}.json")
        docs["scenario"]["transmission"] = net_path
        path = str(tmp_path / f"scenario{k}.json")
        for name, doc in ((net_path, docs["network"]),
                          (path, docs["scenario"])):
            with open(name, "w") as fh:
                json.dump(doc, fh)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = run_cli("cotds", "run", path, "--t-end", "0.05",
                               "--out-dir", str(tmp_path / f"out{k}"))
        except Exception as exc:  # recorded, and failed on below
            code = repr(exc)
        if code not in (0, EXIT_SCHEMA, EXIT_NUMERIC):
            escaped.append((which, paths, value, code))
        codes[which, paths[0], value] = code
    capsys.readouterr()
    # 113 numbers, each at two values, and the two motor sets: the walk
    # found every number
    assert len(cases) == 228
    assert not escaped
    # a negative load that leaves the motors a negative budget is a schema
    # error on either feeder
    for k in range(4):
        load = ("loads", k, "p")
        assert (codes["scenario", ("feeders", 1) + load, -1]
                == codes["scenario", ("feeders", 0) + load, -1]
                == EXIT_SCHEMA)
    # all of a feeder's load on its motor, past its pull-out, fails the
    # motor's equilibrium on either feeder: the connected second feeder ran
    static = ("composition", "static_fraction")
    assert (codes["scenario", ("feeders", 1) + static, 0]
            == codes["scenario", ("feeders", 0) + static, 0]
            == EXIT_NUMERIC)


def test_non_finite_physical_number_is_schema_error(tmp_path, capsys):
    # a NaN motor inertia once built, initialised and ended in "step size
    # underflow in RK integrator" (exit 3)
    with open(fixture_path("testcase1")) as fh:
        doc = json.load(fh)
    doc["feeders"][0]["composition"]["motors"][0]["machine"]["h_m"] = math.nan
    path = str(tmp_path / "nan_h_m.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    assert run_cli("cotds", "run", path, "--out-dir", out) == EXIT_SCHEMA
    assert "machine.h_m: must be finite, got nan" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value", [
    ("--h", "nan"), ("--h", "inf"), ("--h", "0"), ("--h", "-0.01"),
    ("--t-end", "nan"), ("--t-end", "inf"), ("--t-end", "-1")])
def test_bad_run_flag_is_usage_error(tmp_path, capsys, monkeypatch, flag,
                                     value):
    def build(scenario, net):
        raise AssertionError("built a run with a bad flag")

    monkeypatch.setattr(engine, "_build", build)
    out = str(tmp_path / "out")
    rc = run_cli("cotds", "run", fixture_path("testcase2"), flag, value,
                 "--out-dir", out)
    assert rc == EXIT_USAGE
    field = "h_macro" if flag == "--h" else "t_end"
    assert f"error: run.{field}: must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def _tiny_h_linlab(tmp_path, h="5e-324"):
    return ["linlab", "simulate", "--lambda-a", "-1", "--lambda-b", "-2",
            "--ka", "1", "--kb", "1", "--h", h, "--t-end", "1",
            "--scheme", "series", "--out-dir", str(tmp_path)]


def _tiny_h_run(tmp_path, h="5e-324"):
    return ["cotds", "run", fixture_path("testcase2"), "--h", h,
            "--out-dir", str(tmp_path / "out")]


def _tiny_h_file(tmp_path, h="5e-324"):
    with open(fixture_path("testcase2")) as fh:
        doc = json.load(fh)
    doc["run"]["h_macro"] = float(h)
    path = str(tmp_path / "tiny_h.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return ["cotds", "run", path, "--out-dir", str(tmp_path / "out")]


TINY_H = [
    (_tiny_h_linlab, EXIT_USAGE, "error: invalid arguments: h_macro: "),
    (_tiny_h_run, EXIT_USAGE, "error: run.h_macro: "),
    (_tiny_h_file, EXIT_SCHEMA, "schema error: run.h_macro: "),
]


@pytest.mark.parametrize("argv, code, prefix", TINY_H,
                         ids=["linlab_flag", "run_flag", "run_file"])
def test_overflowing_step_count_is_refused(tmp_path, capsys, argv, code,
                                           prefix):
    # t_end / H past the float range once reached the run and exited 3
    # with "cannot convert float infinity to integer"
    assert run_cli(*argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + "5e-324 is too small for t_end ")
    assert err.endswith(": more than 1000000 steps\n")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv, code, prefix", TINY_H,
                         ids=["linlab_flag", "run_flag", "run_file"])
def test_step_count_past_the_bound_is_refused(tmp_path, capsys, argv, code,
                                              prefix):
    # a finite step count the run would keep every record of until memory
    # runs out: 10^9 steps of 1 s, 5 * 10^9 of testcase2's 5 s
    assert run_cli(*argv(tmp_path, "1e-9")) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + "1e-09 is too small for t_end ")
    assert err.endswith(": more than 1000000 steps\n")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("flags", [[], ["--t-end", "0.5"]],
                         ids=["whole run", "t-end cut"])
def test_run_reads_the_network_three_times(tmp_path, monkeypatch, flags):
    # the scenario's check when loaded, the CLI's check of the flags and
    # the run's own; the --t-end cut reads none
    reads = []
    load = engine.load_network

    def counted(name):
        reads.append(name)
        return load(name)

    monkeypatch.setattr(engine, "load_network", counted)
    rc = run_cli("cotds", "run", fixture_path("testcase2"), "--h", "0.1",
                 *flags, "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    assert len(reads) == 3


def test_value_error_during_a_run_propagates(tmp_path, monkeypatch):
    # only the scenario's checks are usage errors; a ValueError from the
    # numerics is a bug, not "error: ..." and exit 1
    g = transmission.TransmissionDae.g
    calls = []

    def buggy_g(self, x, y, u):
        calls.append(None)
        if len(calls) == 10:
            raise ValueError("bug")
        return g(self, x, y, u)

    monkeypatch.setattr(transmission.TransmissionDae, "g", buggy_g)
    with pytest.raises(ValueError, match="^bug$"):
        run_cli("cotds", "run", fixture_path("testcase1"), "--t-end", "0.1",
                "--out-dir", str(tmp_path / "out"))
    assert len(calls) == 10


def test_every_error_class_maps_to_an_exit_code():
    # the CLI turns ValueError into exit 1 or 2 and NumericFailure into
    # exit 3; an error class outside both would reach the user as a
    # traceback, like a bug
    classes = []
    for mod in pkgutil.iter_modules(cotds.__path__):
        module = importlib.import_module(f"cotds.{mod.name}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type)
                    and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert cli.CliError in classes and NumericFailure in classes
    stray = [c.__qualname__ for c in classes if c is not cli.CliError
             and not issubclass(c, (ValueError, NumericFailure))]
    assert stray == []
