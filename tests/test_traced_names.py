"""The benchmark's span recorder still finds the layer functions it wraps.

perfbench/spans.py patches names where swaynet's callers look them up, so a
function that moves or stops being called leaves its span empty. This runs
one traced stage the way the benchmark does and reads the spans back.
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


def test_traced_align_records_every_alignment_layer(tmp_path):
    out = str(tmp_path / "run")
    synth = ["synth", "--out", out, "--seed", "3", "--range-start", "0", "--range-end", str(60 * DAY)]
    for flag in ("aligned-factual", "aligned-misleading", "aligned-uncertain"):
        synth += [f"--synth-{flag}", "4"]
    synth += ["--synth-swayable", "20"]
    for flag in ("events-factual", "events-misleading", "events-uncertain"):
        synth += [f"--synth-{flag}", "300"]
    assert run(synth) == 0
    assert run(["backbone", "--out", out, "--alpha", "0.2"]) == 0
    spans_path = str(tmp_path / "align_spans.npz")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, SPANS, spans_path, "r1", "align", "--out", out, "--threads", "1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = load_spans_module()
    calls = {name: row["calls"] for name, row in spans.summarize(spans.load(spans_path)).items()}
    for name in ("involvement_profiles", "classify_all", "coverage_curve", "ternary_histogram"):
        assert calls.get(f"alignment.{name}", 0) >= 1, (name, calls)
    assert calls.get("store.build_graph", 0) == 0
