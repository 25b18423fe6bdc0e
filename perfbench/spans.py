"""Span and counter recording around swaynet's layer functions.

The recorder keeps spans in memory (name, parent, start, end) and counters
keyed by metric name. ``install`` wraps the public functions of each swaynet
layer where its callers look them up, so nothing under ``src/`` changes.
Spans come from one thread: stages run with ``--threads 1``.

Run as a script, this file is one traced stage process:

    python3 perfbench/spans.py SPANS_PATH RUN_ID STAGE [swaynet args...]

It installs the wrappers, calls ``swaynet.cli.run`` with the stage
arguments inside a root span ``cli.<stage>``, writes the spans to
SPANS_PATH (an ``.npz`` outside the artifacts directory) and exits with the
stage's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Sequence


class Recorder:
    """In-memory spans of one process plus counters at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """fn with a span around every call; count(counters, args, result) after it returns."""
        nid = self._intern(name)
        names, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                meta=np.array(json.dumps({"run_id": self.run_id, "names": self.names, "counters": self.counters})),
            )


def load(path: str) -> dict:
    """Spans written by Recorder.save, as plain lists plus run id, names and counters."""
    import numpy as np

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        meta.update({key: data[key].tolist() for key in ("name_id", "parent", "start", "end")})
    return meta


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    covered = [0.0] * len(start)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        total = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    total += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            total += run_end - run_start
        covered[p] = total
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def summarize(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in spans["names"]}
    for i, nid in enumerate(spans["name_id"]):
        row = out[spans["names"][nid]]
        row["calls"] += 1
        row["total_s"] += spans["end"][i] - spans["start"][i]
        row["self_s"] += selfs[i]
    return out


# -- what to wrap ---------------------------------------------------------------


def _count_parse(counters, args, result):
    events, errors = result
    counters["events.parse_lines"] += len(events) + len(errors)


def _count_cache(counters, args, result):
    counters["store.cache_hits" if result is not None else "store.cache_misses"] += 1


def _count_loaded(counters, args, result):
    counters["store.events_loaded"] += len(result)
    counters["store.users"] = max(counters["store.users"], len(result.users))


def _count_graph(counters, args, result):
    counters["store.graph_nodes"] += result.n_nodes
    counters["store.graph_edges"] += result.n_edges


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions where swaynet's callers look them up.

    A name imported with ``from .x import y`` is patched on the importing
    module; module-attribute lookups (``rngmod.stream``, ``rep.emit_*``) and
    methods are patched on their module or class.
    """
    from swaynet import cli, events, report, rng, sir, store, synth

    def patch(owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, recorder.wrap(raw, name, count))

    patch(events, "parse_events", "events.parse_events", _count_parse)
    patch(events, "parse_events_csv", "events.parse_events_csv", _count_parse)
    patch(cli, "write_events_jsonl", "events.write_events_jsonl")
    patch(cli, "write_follower_logs_csv", "events.write_follower_logs_csv")

    patch(cli, "synthesize", "synth.synthesize")
    patch(synth.SynthResult, "write_jsonl", "synth.write_jsonl")

    patch(cli, "load_or_parse", "store.load_or_parse", _count_loaded)
    columns = store.EventColumns
    patch(columns, "load", "store.EventColumns.load", _count_cache)
    patch(columns, "save", "store.save")
    patch(columns, "from_events", "store.from_events")
    patch(columns, "build_graph", "store.build_graph", _count_graph)
    patch(columns, "follower_logs", "store.follower_logs")

    patch(sir, "reachable_set", "graph.reachable_set")
    patch(sir, "reverse_reachable_set", "graph.reverse_reachable_set")
    patch(cli, "save_binary", "graph.save_binary")
    patch(cli, "load_binary", "graph.load_binary")

    patch(cli, "disparity_filter", "backbone.disparity_filter")
    for owner in (cli, report):
        patch(owner, "strong_disorder_test", "backbone.strong_disorder_test")
    patch(report, "backbone_size_curve", "backbone.backbone_size_curve")
    patch(report, "topology_report", "backbone.topology_report")

    patch(cli, "involvement_profiles", "alignment.involvement_profiles")
    patch(cli, "classify_all", "alignment.classify_all")
    patch(cli, "coverage_curve", "alignment.coverage_curve")
    patch(cli, "ternary_histogram", "alignment.ternary_histogram")

    patch(cli, "window_growth_rate", "growth.window_growth_rate")
    for owner in (cli, report):
        patch(owner, "trend_line", "growth.trend_line")

    patch(cli, "build_cascade_setup", "sir.build_cascade_setup")
    patch(sir.FollowerSnapshots, "__init__", "sir.FollowerSnapshots.init")
    patch(sir.FollowerSnapshots, "at", "sir.FollowerSnapshots.at")
    patch(cli, "fit_parameters", "sir.fit_parameters")
    patch(sir, "nelder_mead_1d", "sir.nelder_mead_1d")

    patch(rng, "stream", "rng.stream")

    for attr in sorted(vars(report)):
        if attr.startswith("emit_"):
            patch(report, attr, f"report.{attr}")
    patch(report, "validate_table", "report.validate_table")


def main(argv: list[str]) -> int:
    spans_path, run_id, stage = argv[0], argv[1], argv[2]
    from swaynet import cli

    recorder = Recorder(run_id)
    install(recorder)
    root = recorder.wrap(cli.run, f"cli.{stage}")
    try:
        return root([stage] + argv[3:])
    finally:
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
