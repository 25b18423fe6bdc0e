"""Tests of the benchmark's own arithmetic and of tracing's transparency.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402

DAY = 86400


# -- self time ------------------------------------------------------------------


def test_self_times_on_hand_built_tree():
    #   0 root   [0, 10]
    #   1 a      [1, 4]   child of root
    #   2 b      [3, 6]   child of root, overlaps a
    #   3 c      [8, 12]  child of root, runs past it
    #   4 a1     [2, 3]   child of a
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    selfs = spans.self_times(start, end, parent)
    # root: 10 minus the union [1, 6] + [8, 10] of its children.
    assert selfs == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_times_leaf_and_empty():
    assert spans.self_times([], [], []) == []
    assert spans.self_times([5.0], [7.5], [-1]) == pytest.approx([2.5])


def test_summarize_aggregates_per_name():
    recorded = {
        "names": ["cli.fit", "sir.fit_parameters", "rng.stream"],
        "name_id": [0, 1, 2, 2],
        "parent": [-1, 0, 1, 1],
        "start": [0.0, 1.0, 2.0, 4.0],
        "end": [10.0, 9.0, 3.0, 6.0],
    }
    rows = spans.summarize(recorded)
    assert rows["rng.stream"] == {"calls": 2, "total_s": pytest.approx(3.0), "self_s": pytest.approx(3.0)}
    assert rows["sir.fit_parameters"]["self_s"] == pytest.approx(5.0)
    assert rows["cli.fit"]["self_s"] == pytest.approx(2.0)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(rows["cli.fit"]["total_s"])


def test_recorder_nests_spans_counts_and_closes_on_error(tmp_path):
    rec = spans.Recorder("t")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return [x]

    def count(counters, args, result):
        counters["leaf.items"] += len(result)

    leaf_t = rec.wrap(leaf, "layer.leaf", count)
    outer = rec.wrap(lambda: leaf_t(1) + leaf_t(2), "layer.outer")
    assert outer() == [1, 2]
    with pytest.raises(ValueError):
        leaf_t(-1)
    path = str(tmp_path / "spans.npz")
    rec.save(path)
    loaded = spans.load(path)
    names = [loaded["names"][i] for i in loaded["name_id"]]
    assert names == ["layer.outer", "layer.leaf", "layer.leaf", "layer.leaf"]
    assert loaded["parent"] == [-1, 0, 0, -1]
    assert all(e >= s for s, e in zip(loaded["start"], loaded["end"]))
    assert loaded["counters"] == {"leaf.items": 2}
    assert loaded["run_id"] == "t"


# -- aggregation -------------------------------------------------------------------


def test_quartiles_of_recorded_runs():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 10.5, 11.5, 12.5, 9.5]
    # statistics.quantiles' default (exclusive) method on the sorted values:
    # q1 at position 2.75 and q3 at position 8.25 (1-based).
    assert summary.quartiles(values) == pytest.approx((9.875, 11.25, 12.625))
    assert summary.quartiles([2.0, 2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0)

    def rec(workload, trace, value):
        return {"context": {"sources": "abc", "workload": workload, "trace": trace}, "metrics": {"pipeline_s": value}}

    groups = summary.summarize([rec("fit-60k", 0, 3.0), rec("ingest-1m", 0, 9.0), rec("fit-60k", 0, 1.0), rec("fit-60k", 1, 4.0)])
    assert groups[("abc", "fit-60k", 0)] == {"pipeline_s": [3.0, 1.0]}
    assert groups[("abc", "fit-60k", 1)] == {"pipeline_s": [4.0]}
    assert groups[("abc", "ingest-1m", 0)] == {"pipeline_s": [9.0]}


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in run.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, *_ in run.PER_LAYER]


# -- tracing changes no artifact ------------------------------------------------------


TINY = run.Workload(
    "tiny",
    "small synth through fit and report, for tests",
    (
        (
            "synth", "--range-start", "0", "--range-end", str(150 * DAY),
            "--synth-aligned-factual", "15", "--synth-aligned-misleading", "15",
            "--synth-aligned-uncertain", "15", "--synth-swayable", "120",
            "--synth-events-factual", "1500", "--synth-events-misleading", "1500",
            "--synth-events-uncertain", "1500",
        ),
        ("backbone", "--alpha", "0.05"),
        ("align", "--theta", "0.95"),
        ("growth",),
        ("fit", "--runs", "4", "--r0-step", "0.5"),
        ("report",),
    ),
    4500,
)


def test_traced_run_leaves_the_same_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    deadline = time.monotonic() + 600
    plain = run.run_iteration(TINY, 5, 0, False, None, deadline)
    traced = run.run_iteration(TINY, 5, 1, True, None, deadline)
    again = run.run_iteration(TINY, 5, 2, True, None, deadline)
    for it in (plain, traced, again):
        assert it.failed == [], it.problems
    assert plain.digest == traced.digest == again.digest
    assert traced.layers["sir.fit_parameters_s"] > 0
    assert traced.layers["rng.stream_calls"] > 0
    counts = [name for name, unit, *_ in run.PER_LAYER if unit == "count"]
    assert {n: traced.layers[n] for n in counts} == {n: again.layers[n] for n in counts}
