import json

import numpy as np
import pytest

from cotds.cosim import TimeSeriesLog
from cotds.engine import RunMethod
from cotds.scenario_io import (
    SchemaError,
    fixture_path,
    load_scenario,
    parse_scenario,
    read_csv,
    write_csv,
)


def fixture_doc(name="testcase1"):
    with open(fixture_path(name)) as fh:
        return json.load(fh)


class TestFixtures:
    def test_shipped_fixtures_parse(self):
        for name in ("testcase1", "testcase2"):
            s = load_scenario(fixture_path(name))
            assert s.name == name
            assert s.feeders and s.t_end > 0

    def test_unknown_fixture(self):
        with pytest.raises((FileNotFoundError, ValueError)):
            fixture_path("testcase99")


class TestParse:
    def test_method_parsed(self):
        doc = fixture_doc()
        doc["run"]["method"] = "parallel"
        assert parse_scenario(doc).method is RunMethod.PARALLEL

    def test_unknown_top_level_key(self):
        doc = fixture_doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_unknown_nested_key(self):
        doc = fixture_doc()
        doc["feeders"][0]["composition"]["motors"][0]["colour"] = "blue"
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_missing_required_key(self):
        doc = fixture_doc()
        del doc["run"]
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_wrong_type(self):
        doc = fixture_doc()
        doc["run"]["h_macro"] = "fast"
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_bool_is_not_a_number(self):
        doc = fixture_doc()
        doc["run"]["h_macro"] = True
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_bad_method(self):
        doc = fixture_doc()
        doc["run"]["method"] = "sideways"
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_motor_shares_validated(self):
        doc = fixture_doc()
        for m in doc["feeders"][0]["composition"]["motors"]:
            m["share"] = 0.9
        with pytest.raises((SchemaError, ValueError)):
            parse_scenario(doc)

    def test_no_feeders_rejected(self):
        doc = fixture_doc()
        doc["feeders"], doc["events"] = [], []
        with pytest.raises(SchemaError, match="at least one feeder"):
            parse_scenario(doc)

    def test_zero_impedance_branch_rejected(self):
        # the monolithic reference divides by every branch impedance
        doc = fixture_doc()
        doc["feeders"][0]["branches"][0].update(r=0.0, x=0.0)
        with pytest.raises(SchemaError, match=r"feeders\[0\]\.branches\[0\]"):
            parse_scenario(doc)
        doc["feeders"][0]["branches"][0]["x"] = 0.01
        parse_scenario(doc)

    def test_zip_fractions_validated(self):
        doc = fixture_doc()
        doc["feeders"][0]["composition"]["zip_fractions"] = [0.5, 0.5, 0.5]
        with pytest.raises((SchemaError, ValueError)):
            parse_scenario(doc)


class TestCsv:
    def make_log(self):
        log = TimeSeriesLog(columns=["a", "b"])
        rng = np.random.default_rng(7)
        for k in range(25):
            log.append(0.01 * k, rng.standard_normal(2))
        return log

    def test_write_read_round_trip(self, tmp_path):
        log = self.make_log()
        p = str(tmp_path / "out" / "run.csv")
        write_csv(p, log, ["a", "b"])
        back = read_csv(p)
        assert back.columns == ["a", "b"]
        assert np.allclose(back.time_array, log.time_array, atol=1e-12)
        assert np.allclose(back.as_array(), log.as_array(), atol=1e-11)

    def test_channel_subset(self, tmp_path):
        log = self.make_log()
        p = str(tmp_path / "one.csv")
        write_csv(p, log, ["b"])
        back = read_csv(p)
        assert back.columns == ["b"]
        assert np.allclose(back.channel("b"), log.channel("b"), atol=1e-11)

    def test_header_first_column_is_time(self, tmp_path):
        log = self.make_log()
        p = str(tmp_path / "t.csv")
        write_csv(p, log, ["a"])
        with open(p) as fh:
            assert fh.readline().strip() == "t,a"
