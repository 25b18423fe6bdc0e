"""The benchmark's span recorder still finds the layer functions it wraps.

perfbench/spans.py patches names where swaynet's callers look them up, so a
function that moves or stops being called leaves its span empty. These run
traced stages the way the benchmark does and read the spans back.
"""

import importlib.util
import os
import subprocess
import sys

from swaynet.cli import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
DAY = 86_400


def load_spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synth_tiny(out, days, aligned, swayable, events):
    synth = ["synth", "--out", out, "--seed", "3", "--range-start", "0", "--range-end", str(days * DAY)]
    for flag in ("aligned-factual", "aligned-misleading", "aligned-uncertain"):
        synth += [f"--synth-{flag}", str(aligned)]
    synth += ["--synth-swayable", str(swayable)]
    for flag in ("events-factual", "events-misleading", "events-uncertain"):
        synth += [f"--synth-{flag}", str(events)]
    assert run(synth) == 0


def traced_run(tmp_path, stage, *args):
    """(span name -> call count, counters) of one stage run under perfbench/spans.py."""
    spans_path = str(tmp_path / f"{stage}_spans.npz")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, SPANS, spans_path, "r1", stage, *args, "--threads", "1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = load_spans_module()
    recorded = spans.load(spans_path)
    return {name: row["calls"] for name, row in spans.summarize(recorded).items()}, recorded["counters"]


def traced_calls(tmp_path, stage, *args):
    """Span name -> call count of one stage run under perfbench/spans.py."""
    return traced_run(tmp_path, stage, *args)[0]


def test_traced_align_records_every_alignment_layer(tmp_path):
    out = str(tmp_path / "run")
    synth_tiny(out, 60, 4, 20, 300)
    assert run(["backbone", "--out", out, "--alpha", "0.2"]) == 0
    calls = traced_calls(tmp_path, "align", "--out", out)
    for name in ("involvement_profiles", "classify_all", "coverage_curve", "ternary_histogram"):
        assert calls.get(f"alignment.{name}", 0) >= 1, (name, calls)
    assert calls.get("store.build_graph", 0) == 0


def test_traced_ingest_records_one_parse_per_input(tmp_path):
    from oracles import to_events, write_events_csv
    from swaynet.events import ByteChunks, parse_events

    out = str(tmp_path / "synth")
    synth_tiny(out, 60, 4, 20, 300)
    with open(os.path.join(out, "events.jsonl"), "rb") as fh:
        lines = fh.readlines()
        fh.seek(0)
        columns, _ = parse_events(ByteChunks(fh))
    jsonl_path, csv_path = tmp_path / "in.jsonl", tmp_path / "in.csv"
    jsonl_path.write_bytes(b"".join(lines[:5] + [b"not json\n"] + lines[5:]))
    with open(csv_path, "w", newline="") as fh:
        write_events_csv(to_events(columns), fh)
    # events.parse_lines counts the events and the invalid lines.
    for path, parse, parsed in ((jsonl_path, "events.parse_events", len(columns) + 1), (csv_path, "events.parse_events_csv", len(columns))):
        calls, counters = traced_run(tmp_path, "ingest", "--out", str(tmp_path / path.suffix[1:]), "--events", str(path))
        assert (calls.get(parse), calls.get("store.from_events")) == (1, 1), (path, calls)
        assert counters["events.parse_lines"] == parsed, (path, counters)


CASCADE_LAYERS = (
    "sir.build_cascade_setup",
    "sir.FollowerSnapshots.at",
    "graph.reachable_set",
    "graph.reverse_reachable_set",
    "rng.stream",
)


def test_traced_growth_fit_and_simulate_record_every_model_layer(tmp_path):
    out = str(tmp_path / "run")
    synth_tiny(out, 150, 15, 120, 3000)
    assert run(["align", "--out", out, "--unfiltered"]) == 0
    expected = {
        "growth": ("growth.window_growth_rate", "store.follower_logs"),
        "fit": CASCADE_LAYERS + ("sir.fit_parameters", "sir.nelder_mead_1d", "store.follower_logs"),
        "simulate": CASCADE_LAYERS,
    }
    flags = {"fit": ("--runs", "5"), "simulate": ("--delta", "0.05", "--r0", "1.5", "--runs", "5")}
    for stage, names in expected.items():
        calls, counters = traced_run(tmp_path, stage, "--out", out, *flags.get(stage, ()))
        for name in names:
            assert calls.get(name, 0) >= 1, (stage, name, calls)
        assert (counters.get("store.cache_hits"), counters.get("store.cache_misses", 0)) == (1, 0), (stage, counters)


def test_growth_and_fit_read_the_cached_follower_table(tmp_path, monkeypatch):
    from swaynet.store import EventColumns

    out = str(tmp_path / "run")
    synth_tiny(out, 150, 15, 120, 3000)
    assert run(["align", "--out", out, "--unfiltered"]) == 0
    builds = []
    build = EventColumns._follower_blocks
    monkeypatch.setattr(EventColumns, "_follower_blocks", lambda self: builds.append(1) or build(self))
    assert run(["growth", "--out", out]) == 0
    assert run(["fit", "--out", out, "--runs", "5"]) == 0
    assert builds == []
    # A miss in any stage rebuilds the table, once, and writes it back.
    os.remove(os.path.join(out, "events_cache", "cache_meta.json"))
    assert run(["growth", "--out", out]) == 0
    assert builds == [1]
    assert EventColumns.load(os.path.join(out, "events_cache")) is not None


def test_traced_fit_counts_one_graph_per_window_and_class(tmp_path):
    from swaynet.cli import PipelineConfig, _fit_windows, _Inputs
    from swaynet.events import CONTENT_CLASSES

    out = str(tmp_path / "run")
    synth_tiny(out, 150, 15, 120, 3000)
    assert run(["align", "--out", out, "--unfiltered"]) == 0
    assert run(["growth", "--out", out]) == 0
    calls, counters = traced_run(tmp_path, "fit", "--out", out, "--runs", "5")
    config = PipelineConfig(out=out)
    columns = _Inputs(config, "fit").columns()
    graphs = [
        columns.build_graph(columns.event_mask((window.start - 30 * DAY, window.start), cls))
        for window in _fit_windows(config, columns)
        for cls in CONTENT_CLASSES
    ]
    assert len(graphs) >= 6
    assert calls["store.build_graph"] == len(graphs)
    assert counters["store.graph_nodes"] == sum(g.n_nodes for g in graphs)
    assert counters["store.graph_edges"] == sum(g.n_edges for g in graphs)
