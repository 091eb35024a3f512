import dataclasses
import json
import math

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


class TestTopology:
    """Loads and motors sit on nodes of their feeder's branch tree, and a
    motor name names one motor on its interface bus."""

    @pytest.mark.parametrize("node", [7, 2, -1])
    def test_load_off_the_tree(self, node):
        # testcase1's bus-5 feeder is one branch, nodes 0 and 1; node 7
        # once ended in an IndexError, node -1 ran on the last node
        doc = fixture_doc()
        doc["feeders"][0]["loads"][0]["node"] = node
        with pytest.raises(SchemaError, match=rf"^feeders\[0\]\.loads\[0\]"
                                              rf"\.node: {node} is not a node"):
            parse_scenario(doc)

    def test_motor_off_the_tree(self):
        doc = fixture_doc()
        doc["feeders"][2]["composition"]["motors"][1]["node"] = 2
        with pytest.raises(SchemaError, match=r"^feeders\[2\]\.composition"
                                              r"\.motors\[1\]\.node: 2"):
            parse_scenario(doc)

    def test_load_at_the_substation_parses(self):
        doc = fixture_doc()
        doc["feeders"][0]["loads"][0]["node"] = 0
        assert parse_scenario(doc).feeders[0].loads[0][0] == 0

    @pytest.mark.parametrize("edges", [
        [(1, 2), (0, 1), (2, 3), (3, 4)],   # a child before its parent
        [(0, 1), (1, 2), (0, 2), (3, 4)],   # node 2 with two parents
        [(0, 1), (1, 2), (2, 3), (3, 5)],   # node 4 missing
    ], ids=["child_first", "two_parents", "gap"])
    def test_branch_tree(self, edges):
        doc = fixture_doc("testcase2")
        for br, (a, b) in zip(doc["feeders"][0]["branches"], edges):
            br["from"], br["to"] = a, b
        with pytest.raises(SchemaError, match=r"^feeders\[0\]\.branches"):
            parse_scenario(doc)

    def test_motor_name_repeated_in_a_feeder(self):
        doc = fixture_doc()
        motors = doc["feeders"][1]["composition"]["motors"]
        motors[1]["name"] = motors[0]["name"]
        doc["events"] = []
        with pytest.raises(SchemaError, match=r"^feeders\[1\]\.composition"
                                              r"\.motors\[1\]\.name: "
                                              r"'bus6_im1' is already"):
            parse_scenario(doc)

    def test_motor_name_repeated_on_one_bus(self):
        doc = fixture_doc("testcase2")  # both feeders hang off bus 2
        doc["feeders"][1]["composition"]["motors"][0]["name"] = "f1_im"
        with pytest.raises(SchemaError, match="'f1_im' is already a motor "
                                              "on bus 2"):
            parse_scenario(doc)

    def test_motor_name_repeated_on_another_bus_parses(self):
        # channels and events name a motor with its bus, D<bus>
        doc = fixture_doc()
        doc["feeders"][1]["composition"]["motors"][0]["name"] = "bus5_im1"
        assert parse_scenario(doc).feeders[1].motors[0].name == "bus5_im1"

    def test_spec_built_in_code(self):
        fs = load_scenario(fixture_path("testcase1")).feeders[0]
        with pytest.raises(ValueError, match=r"^loads\[1\]\.node: 3"):
            dataclasses.replace(fs, loads=fs.loads + ((3, 0.1, 0.0),))


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


@pytest.mark.parametrize("field, value", [
    ("h_macro", 0.0), ("h_macro", -0.006), ("h_macro", math.inf),
    ("h_macro", math.nan), ("t_end", -1.0), ("t_end", math.inf),
    ("t_end", math.nan), ("rk_tol", 0.0), ("rk_tol", -1e-6),
    ("rk_tol", math.inf), ("rk_tol", math.nan)])
def test_run_parameter_must_be_finite(field, value):
    doc = fixture_doc()
    doc["run"][field] = value
    with pytest.raises(SchemaError, match=rf"^run\.{field}: must be finite"):
        parse_scenario(doc)


# physical numbers that once parsed as NaN and failed only as numerics:
# (path into the document, the field's name in the error)
NON_FINITE_FIELDS = [
    (("feeders", 0, "composition", "motors", 0, "machine", "h_m"),
     r"feeders\[0\]\.composition\.motors\[0\]\.machine\.h_m"),
    (("feeders", 0, "branches", 0, "r"), r"feeders\[0\]\.branches\[0\]\.r"),
    (("feeders", 0, "loads", 0, "p"), r"feeders\[0\]\.loads\[0\]\.p"),
    (("feeders", 0, "composition", "zip_fractions", 0),
     r"feeders\[0\]\.composition\.zip_fractions\[0\]"),
    (("events", 0, "time"), r"events\[0\]\.time"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   -10 ** 400],
                         ids=["nan", "inf", "-inf", "-10**400"])
@pytest.mark.parametrize("path, where", NON_FINITE_FIELDS,
                         ids=[p[-1] if isinstance(p[-1], str) else p[-2]
                              for p, _ in NON_FINITE_FIELDS])
def test_physical_number_must_be_finite(path, where, value):
    doc = fixture_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(SchemaError, match=rf"^{where}: must be finite, got"):
        parse_scenario(doc)


def test_zero_t_end_parses():
    doc = fixture_doc()
    doc["run"]["t_end"], doc["events"] = 0.0, []
    assert parse_scenario(doc).t_end == 0.0
