import csv
import io
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swaynet import report as rep
from oracles import RetweetEvent, columns_of, digraph_of, write_header
from swaynet.growth import GrowthPoint, TimeWindow

DAY = 86_400


def ev(ts, src, dst, cls="factual", src_bot=False):
    cat = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "NA"}[cls]
    return RetweetEvent(ts, src, dst, cat, cls, 3, 5, src_bot, False, False, False)


@pytest.fixture()
def columns():
    events = [
        ev(100, "a", "b", "factual"),
        ev(100, "a", "b", "factual"),
        ev(2 * DAY, "a", "c", "misleading"),
        ev(2 * DAY + 5, "d", "b", "uncertain", src_bot=True),
        ev(3 * DAY, "c", "d", "factual"),
    ]
    return columns_of(events)


@contextmanager
def table(path):
    """A CSV table at `path` opened for an emitter, its header row written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield write_header(fh, path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestComponents:
    def test_node_shares_sum_to_one(self, tmp_path, columns):
        g = columns.build_graph()
        path = str(tmp_path / "fig1a_components.csv")
        with table(path) as fh:
            rep.emit_components(fh, g, g)
        rows = read_rows(path)
        for network in ("original", "filtered"):
            shares = [float(r["value"]) for r in rows if r["network"] == network and r["kind"] == "node_share"]
            assert sum(shares) == pytest.approx(1.0)
            flows = [float(r["value"]) for r in rows if r["network"] == network and r["kind"] == "flow_share"]
            assert sum(flows) == pytest.approx(1.0)

    def test_schema_validates(self, tmp_path, columns):
        g = columns.build_graph()
        path = str(tmp_path / "fig1a_components.csv")
        with table(path) as fh:
            rep.emit_components(fh, g, g)
        rep.validate_table(path, rep.load_schemas())

    def test_schema_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "fig1a_components.csv")
        with open(path, "w") as fh:
            fh.write("wrong,header\n")
        with pytest.raises(ValueError, match="header"):
            rep.validate_table(path, rep.load_schemas())


class TestRetentionAndTemporal:
    def test_retention_counts_by_class(self, tmp_path, columns):
        # Keep only the (a, b) edge: 2 factual events of 3 total factual.
        retained = np.array([True, True, False, False, False])
        path = str(tmp_path / "fig1b_retention.csv")
        with table(path) as fh:
            rep.emit_retention(fh, columns, retained)
        rows = {r["class"]: r for r in read_rows(path)}
        assert rows["factual"]["original_weight"] == "3"
        assert rows["factual"]["retained_weight"] == "2"
        assert float(rows["factual"]["retained_fraction"]) == pytest.approx(2 / 3)
        assert rows["misleading"]["retained_weight"] == "0"

    def test_temporal_day_buckets(self, tmp_path, columns):
        retained = np.array([True, False, True, False, False])
        path = str(tmp_path / "fig1c_temporal.csv")
        with table(path) as fh:
            rep.emit_temporal(fh, columns, retained)
        rows = {int(r["day"]): r for r in read_rows(path)}
        assert int(rows[0]["original_count"]) == 2 and int(rows[0]["retained_count"]) == 1
        assert int(rows[2]["original_count"]) == 2 and int(rows[2]["retained_count"]) == 1
        assert int(rows[3]["original_count"]) == 1 and int(rows[3]["retained_count"]) == 0


class TestGrowthEmit:
    def test_trend_only_on_defined_points(self, tmp_path):
        points = {
            "factual": [
                GrowthPoint(TimeWindow(0, 30 * DAY), "factual", 0.1, 2, 100, 110),
                GrowthPoint(TimeWindow(15 * DAY, 45 * DAY), "factual", None, 0, 0, 0),
                GrowthPoint(TimeWindow(30 * DAY, 60 * DAY), "factual", 0.2, 2, 100, 120),
            ]
        }
        path = str(tmp_path / "fig3b_growth.csv")
        with table(path) as fh:
            rep.emit_growth_with_trend(fh, points)
        rows = read_rows(path)
        fac = [r for r in rows if r["class"] == "factual"]
        assert fac[0]["trend"] != "" and fac[2]["trend"] != ""
        assert fac[1]["rate"] == "" and fac[1]["trend"] == ""  # the gap stays a gap
        rep.validate_table(path, rep.load_schemas())


class TestFlagRetention:
    def test_bucketing_and_retention(self, tmp_path):
        # Users u1, u2, u3: all in the original graph, only u1 retained.
        bot, verified = np.array([0.0, 1.0, 0.52]), np.array([1.0, 0.0, 0.0])
        path = str(tmp_path / "supp_flag_retention.csv")
        with table(path) as fh:
            rep.emit_flag_retention(fh, bot, verified, np.ones(3, dtype=bool), np.array([True, False, False]))
        rows = read_rows(path)
        bot = {r["rate_bucket"]: r for r in rows if r["kind"] == "bot"}
        assert bot["0.0"]["original_users"] == "1" and bot["0.0"]["retained_users"] == "1"
        assert bot["1.0"]["original_users"] == "1" and bot["1.0"]["retained_users"] == "0"
        assert bot["0.5"]["original_users"] == "1"
        verified = {r["rate_bucket"]: r for r in rows if r["kind"] == "verified"}
        assert verified["1.0"]["original_users"] == "1" and verified["1.0"]["retained_users"] == "1"

    def test_buckets_match_per_user_rounding(self, tmp_path):
        # Rates on every twentieth hit the halfway points between tenths.
        rng = np.random.default_rng(12)
        bot = np.concatenate([np.arange(21) / 20, rng.random(379)])
        verified = rng.permutation(bot)
        original, retained = rng.random(400) < 0.9, rng.random(400) < 0.5
        path = str(tmp_path / "supp_flag_retention.csv")
        with table(path) as fh:
            rep.emit_flag_retention(fh, bot, verified, original, retained)
        expected: dict[tuple[str, str], list[int]] = {}
        for kind, rates in (("bot", bot), ("verified", verified)):
            for i in np.flatnonzero(original):
                bucket = min(round(float(rates[i]) * 10) / 10, 1.0)
                cell = expected.setdefault((kind, f"{bucket:.1f}"), [0, 0])
                cell[0] += 1
                cell[1] += bool(retained[i])
        rows = read_rows(path)
        assert len(rows) == 22
        for row in rows:
            got = [int(row["original_users"]), int(row["retained_users"])]
            assert got == expected.get((row["kind"], row["rate_bucket"]), [0, 0])


class TestFitEmitters:
    def test_fit_tables_round_numbers(self, tmp_path):
        fit_doc = {
            "delta": 0.05,
            "windows": [
                {
                    "window_start": 0,
                    "r0_mean": 1.5,
                    "r0_std": 0.2,
                    "n_accepted": 101,
                    "simulated_rates": {
                        "factual": {"mean": 0.11, "std": 0.01},
                        "misleading": {"mean": 0.07, "std": 0.02},
                        "uncertain": {"mean": 0.03, "std": 0.01},
                    },
                }
            ],
        }
        empirical = {0: {"factual": 0.12, "misleading": 0.06, "uncertain": None}}
        rates_path = str(tmp_path / "fig4_rates.csv")
        with table(rates_path) as fh:
            rep.emit_fit_rates(fh, fit_doc, empirical)
        rows = {r["class"]: r for r in read_rows(rates_path)}
        assert rows["factual"]["empirical_rate"].startswith("0.12")
        assert rows["uncertain"]["empirical_rate"] == ""  # gap preserved
        assert rows["misleading"]["simulated_mean"].startswith("0.07")
        r0_path = str(tmp_path / "fig4_r0.csv")
        with table(r0_path) as fh:
            rep.emit_fit_r0(fh, fit_doc)
        (row,) = read_rows(r0_path)
        assert row["n_accepted"] == "101"
        assert float(row["delta"]) == 0.05
        rep.validate_table(rates_path, rep.load_schemas())
        rep.validate_table(r0_path, rep.load_schemas())


class TestTopologyEmit:
    def test_topology_json_shape(self, tmp_path):
        g = digraph_of([("a", "b", 1), ("b", "c", 2), ("c", "a", 4)])
        path = str(tmp_path / "supp_topology.json")
        with open(path, "w", encoding="utf-8") as fh:
            rep.emit_topology(fh, g)
        doc = json.loads(open(path).read())
        assert doc["average_clustering"] == pytest.approx(1.0)
        assert doc["weight_distribution"] == [[1, 1], [2, 1], [4, 1]]


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner) | st.lists(st.floats(allow_nan=True, allow_infinity=True)) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


def dumped(doc):
    fh = io.StringIO()
    rep.dump_json(doc, fh)
    return fh.getvalue()


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_bytes_equal_json_dump(self, doc):
        assert dumped(doc) == json.dumps(doc, sort_keys=True, indent=1)

    def test_fit_shaped_document(self):
        doc = {
            "windows": [{"accepted_r0": [0.1, 2.5, -0.0], "accepted_loss": [math.nan, math.inf, -math.inf, 1e-300]}, {}],
            "excluded_windows": {}, "r0_grid": [], "delta": 0.5, "n": 3, "name": "ü\n", "none": None, "flag": True,
            "nested": [[[]], [{}], [[1.5, 2.0], (1, "a")]],
        }
        assert dumped(doc) == json.dumps(doc, sort_keys=True, indent=1)

    def test_scalar_keys_are_written_as_their_text(self):
        for doc in ({1: "a", 2: [1.0]}, {0.5: 1, math.inf: 2}, {True: 1, False: 2}, {None: 3}):
            assert dumped(doc) == json.dumps(doc, sort_keys=True, indent=1)

    def test_what_json_refuses_is_refused(self):
        for doc in ({"a": object()}, {(1, 2): 3}, {"a": 1, 2: "b"}):
            with pytest.raises(TypeError):
                json.dumps(doc, sort_keys=True, indent=1)
            with pytest.raises(TypeError):
                dumped(doc)
