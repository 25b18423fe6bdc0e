"""swaynet pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs each pipeline stage of a workload as its own ``swaynet`` process
(``python3 -m swaynet.cli``, ``--threads 1``), one after another, from the
sources under ``src/`` of the checkout this file sits in. Workloads are
closed-loop and sequential; all inputs derive from ``--seed``.

A run repeats whole pipeline iterations while the next one is expected to
finish within ``--seconds`` (always at least one) and checks every
iteration's outputs: each stage exits 0, report tables match their schemas,
fit.json excludes no window and has 0 <= delta <= 1, and the digest of the
whole ``--out`` tree matches every earlier iteration of the same workload,
seed and sources (within the run and across runs in this checkout).

With ``--trace 0`` the stages run untraced and the last stdout line carries
the end-to-end metrics; with ``--trace 1`` each stage runs under
``perfbench/spans.py`` and the last line carries the per-layer metrics,
including ``trace.overhead_s``: traced ``pipeline_s`` minus the
``pipeline_s`` of one untraced iteration of the same seed that the traced run
makes first. The host's speed drifts over minutes, so the two are measured
back to back.
Human-readable lines before it name every metric with its unit, the sample
count and the machine context.

Scratch data goes under ``.perfbench_work/`` (removed at exit); out-tree
digests and a record of every run persist in ``.perfbench_state/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
RECORDS = os.path.join(STATE_DIR, "records.json")
RUN_LOG = os.path.join(STATE_DIR, "runs.jsonl")

RUN_LIMIT_S = 170.0  # a stage still running this long after the run started is killed
WARMUPS = 3  # import warm-ups timed per run; setup_s takes their median

DAY = 86400
C10_SYNTH = [
    "--range-start", "0", "--range-end", str(360 * DAY),
    "--synth-aligned-factual", "2000", "--synth-aligned-misleading", "2000",
    "--synth-aligned-uncertain", "2000", "--synth-swayable", "20000",
    "--synth-events-factual", "334000", "--synth-events-misleading", "333000",
    "--synth-events-uncertain", "333000",
]
README_SYNTH = ["--range-start", "2020-03-17", "--range-end", "2021-03-17"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[tuple[str, ...], ...]  # stage name followed by its own flags
    n_events: int
    ingest_input: bool = False  # set-up synthesizes a JSONL that `ingest` reads


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-60k",
            "README pipeline on the default 60k-event synth with fit at its defaults: "
            "the sir sampler and rng do almost all the work",
            (
                ("synth", *README_SYNTH),
                ("backbone", "--alpha", "0.05"),
                ("align", "--theta", "0.95"),
                ("growth",),
                ("fit", "--lookback", "1", "--tolerance", "0.10"),
                ("report",),
            ),
            60_000,
        ),
        Workload(
            "pipeline-1m",
            "c10 config (1M events, 26k users) through report and fit --runs 10: "
            "store loads, graph builds, growth windowing, reachability, snapshots and writers",
            (
                ("synth", *C10_SYNTH),
                ("backbone", "--alpha", "0.05"),
                ("align", "--theta", "0.95"),
                ("growth",),
                ("report",),
                ("fit", "--runs", "10"),
            ),
            1_000_000,
        ),
        Workload(
            "ingest-1m",
            "ingest of a 1M-event JSONL made in set-up, then backbone, align and growth: "
            "the parse and read side of events and store",
            (
                ("ingest",),
                ("backbone", "--alpha", "0.05"),
                ("align", "--theta", "0.95"),
                ("growth",),
            ),
            1_000_000,
            ingest_input=True,
        ),
    )
}

END_TO_END = (("pipeline_s", "s"), ("prep_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

MAX_COUNTERS = {"store.users"}  # merged across stages by max; every other counter adds up

STAGE_NAMES = ("synth", "ingest", "backbone", "align", "growth", "report", "fit")

# Per-layer metrics: (name, unit, kind, source). Kinds: "total" sums the
# inclusive time of the named spans ("x.*" matches a prefix), "calls" counts
# them, "self" sums the self time of every span of a layer, "counter" reads a
# counter recorded at a wrapped boundary, "artifact" reads a count the stage
# wrote into its outputs, and "trace" is computed by the runner.
PER_LAYER = (
    *((f"cli.{s}_s", "s", "total", (f"cli.{s}",)) for s in STAGE_NAMES),
    ("cli.startup_s", "s", "trace", None),
    ("cli.self_s", "s", "self", "cli"),
    ("events.parse_s", "s", "total", ("events.parse_events", "events.parse_events_csv")),
    ("events.parse_lines", "count", "counter", "events.parse_lines"),
    ("events.write_jsonl_s", "s", "total", ("events.write_events_jsonl",)),
    ("events.follower_logs_csv_s", "s", "total", ("events.write_follower_logs_csv",)),
    ("events.self_s", "s", "self", "events"),
    ("synth.synthesize_s", "s", "total", ("synth.synthesize",)),
    ("synth.write_jsonl_s", "s", "total", ("synth.write_jsonl",)),
    ("synth.self_s", "s", "self", "synth"),
    ("store.load_s", "s", "total", ("store.load_or_parse",)),
    ("store.cache_hits", "count", "counter", "store.cache_hits"),
    ("store.cache_misses", "count", "counter", "store.cache_misses"),
    ("store.events_loaded", "count", "counter", "store.events_loaded"),
    ("store.users", "count", "counter", "store.users"),
    ("store.save_s", "s", "total", ("store.save",)),
    ("store.from_events_s", "s", "total", ("store.from_events",)),
    ("store.build_graph_s", "s", "total", ("store.build_graph",)),
    ("store.build_graph_calls", "count", "calls", ("store.build_graph",)),
    ("store.graph_nodes", "count", "counter", "store.graph_nodes"),
    ("store.graph_edges", "count", "counter", "store.graph_edges"),
    ("store.follower_logs_s", "s", "total", ("store.follower_logs",)),
    ("store.follower_logs_calls", "count", "calls", ("store.follower_logs",)),
    ("store.self_s", "s", "self", "store"),
    ("graph.reachable_s", "s", "total", ("graph.reachable_set", "graph.reverse_reachable_set")),
    ("graph.reachable_calls", "count", "calls", ("graph.reachable_set", "graph.reverse_reachable_set")),
    ("graph.save_binary_s", "s", "total", ("graph.save_binary",)),
    ("graph.load_binary_s", "s", "total", ("graph.load_binary",)),
    ("graph.self_s", "s", "self", "graph"),
    ("backbone.disparity_filter_s", "s", "total", ("backbone.disparity_filter",)),
    ("backbone.heterogeneity_s", "s", "total", ("backbone.strong_disorder_test",)),
    ("backbone.edges_in", "count", "artifact", ("backbone_meta.json", "params", "original", "edges")),
    ("backbone.edges_kept", "count", "artifact", ("backbone_meta.json", "params", "filtered", "edges")),
    ("backbone.self_s", "s", "self", "backbone"),
    ("alignment.profiles_s", "s", "total", ("alignment.involvement_profiles",)),
    ("alignment.classify_s", "s", "total", ("alignment.classify_all",)),
    ("alignment.coverage_s", "s", "total", ("alignment.coverage_curve",)),
    ("alignment.aligned_users", "count", "artifact", ("align_meta.json", "params", "aligned_counts")),
    ("alignment.self_s", "s", "self", "alignment"),
    ("growth.window_rate_s", "s", "total", ("growth.window_growth_rate",)),
    ("growth.window_rate_calls", "count", "calls", ("growth.window_growth_rate",)),
    ("growth.trend_s", "s", "total", ("growth.trend_line",)),
    ("growth.windows", "count", "artifact", ("growth_meta.json", "params", "windows")),
    ("growth.defined_points", "count", "artifact", ("growth_meta.json", "params", "defined_points")),
    ("growth.self_s", "s", "self", "growth"),
    ("sir.setup_s", "s", "total", ("sir.build_cascade_setup",)),
    ("sir.setup_calls", "count", "calls", ("sir.build_cascade_setup",)),
    ("sir.snapshots_init_s", "s", "total", ("sir.FollowerSnapshots.init",)),
    ("sir.snapshot_queries", "count", "calls", ("sir.FollowerSnapshots.at",)),
    ("sir.snapshot_s", "s", "total", ("sir.FollowerSnapshots.at",)),
    ("sir.fit_parameters_s", "s", "total", ("sir.fit_parameters",)),
    ("sir.nelder_mead_s", "s", "total", ("sir.nelder_mead_1d",)),
    ("sir.objective_evals", "count", "artifact", ("fit.json", "n_objective_evaluations")),
    ("sir.self_s", "s", "self", "sir"),
    ("rng.stream_calls", "count", "calls", ("rng.stream",)),
    ("rng.stream_s", "s", "total", ("rng.stream",)),
    ("report.emit_s", "s", "total", ("report.emit_*",)),
    ("report.validate_s", "s", "total", ("report.validate_table",)),
    ("report.tables", "count", "artifact", ("report_meta.json", "params", "n_tables")),
    ("report.self_s", "s", "self", "report"),
    ("trace.pipeline_s", "s", "trace", None),
    ("trace.overhead_s", "s", "trace", None),
)


# -- processes --------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float


def run_process(cmd: list[str], log_path: str, deadline: float) -> Proc:
    """Run cmd to completion; its exit code, wall time and own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


# -- output checks ------------------------------------------------------------------


def tree_digest(root: str, skip: frozenset[str] = frozenset()) -> str:
    """sha256 over relative paths and bytes of every file, in sorted walk order.

    The same rule as the c10 acceptance test's digest; directories named in
    skip are left out.
    """
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(root)):
        if skip.intersection(os.path.relpath(dirpath, root).split(os.sep)):
            continue
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_stage(stage: str, out: str, workload: Workload) -> list[str]:
    """Problems in what one stage (that exited 0) wrote; empty means ok."""
    problems: list[str] = []
    if stage in ("synth", "ingest"):
        params = _read_json(os.path.join(out, f"{stage}_meta.json"))["params"]
        if params["n_events"] != workload.n_events:
            problems.append(f"{stage}: {params['n_events']} events, expected {workload.n_events}")
        if params.get("n_errors", 0):
            problems.append(f"ingest: {params['n_errors']} invalid lines")
    elif stage == "report":
        from swaynet import report

        schemas = report.load_schemas()
        tables = sorted(n for n in os.listdir(os.path.join(out, "report")) if n.endswith(".csv"))
        for name in tables:
            try:
                report.validate_table(os.path.join(out, "report", name), schemas)
            except ValueError as exc:
                problems.append(f"report: {exc}")
        if not tables:
            problems.append("report: no tables")
    elif stage == "fit":
        doc = _read_json(os.path.join(out, "fit.json"))
        if doc["excluded_windows"]:
            problems.append(f"fit: excluded windows {sorted(doc['excluded_windows'])}")
        if not 0.0 <= doc["delta"] <= 1.0:
            problems.append(f"fit: delta {doc['delta']} outside [0, 1]")
    return problems


# -- persisted records ---------------------------------------------------------------


def load_records() -> dict:
    try:
        return _read_json(RECORDS)
    except FileNotFoundError:
        return {}


def save_records(records: dict) -> None:
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = RECORDS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
    os.replace(tmp, RECORDS)


# -- one iteration ---------------------------------------------------------------------


@dataclass
class Iteration:
    stages: list[str] = field(default_factory=list)
    procs: list[Proc] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)  # one entry per failed operation
    problems: list[str] = field(default_factory=list)
    pipeline_s: float = 0.0
    prep_s: float = 0.0
    fit_s: float | None = None
    digest: str | None = None
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def run_iteration(workload: Workload, seed: int, index: int, traced: bool, input_path: str | None, deadline: float) -> Iteration:
    base = os.path.join(WORK, f"iter{index}")
    out = os.path.join(base, "out")
    spans_dir = os.path.join(base, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    it = Iteration()
    first_start = last_end = None
    for flags in workload.stages:
        stage = flags[0]
        argv = [stage, "--out", out, "--seed", str(seed), "--threads", "1", *flags[1:]]
        if stage == "ingest":
            argv += ["--events", input_path]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), os.path.join(spans_dir, f"{stage}.npz"),
                   f"{workload.name}/{seed}/{index}", *argv]
        else:
            cmd = [sys.executable, "-m", "swaynet.cli", *argv]
        started = time.perf_counter()
        proc = run_process(cmd, os.path.join(base, f"{stage}.log"), deadline)
        last_end = time.perf_counter()
        first_start = started if first_start is None else first_start
        it.stages.append(stage)
        it.procs.append(proc)
        if stage == "fit":
            it.fit_s = proc.wall_s
        else:
            it.prep_s += proc.wall_s
        if proc.code != 0:
            it.failed.append(stage)
            with open(os.path.join(base, f"{stage}.log")) as fh:
                tail = fh.read()[-400:].strip()
            it.problems.append(f"{stage}: exit {proc.code}: {tail}")
            break
    it.pipeline_s = last_end - first_start
    for stage, proc in zip(it.stages, it.procs):
        if proc.code == 0:
            problems = check_stage(stage, out, workload)
            if problems:
                it.failed.append(stage)
                it.problems.extend(problems)
    if not it.failed:
        it.digest = tree_digest(out)
    if traced and not it.failed:
        it.layers = layer_metrics(it, out, spans_dir)
    return it


# -- per-layer metrics ----------------------------------------------------------------------


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)


def _artifact(out: str, path: tuple[str, ...]) -> int:
    file_path = os.path.join(out, path[0])
    if not os.path.exists(file_path):
        return 0
    value = _read_json(file_path)
    for key in path[1:]:
        value = value[key]
    return sum(value.values()) if isinstance(value, dict) else int(value)


def layer_metrics(it: Iteration, out: str, spans_dir: str) -> dict[str, float]:
    import spans as spanmod

    rows: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for stage in it.stages:
        recorded = spanmod.load(os.path.join(spans_dir, f"{stage}.npz"))
        for name, row in spanmod.summarize(recorded).items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in recorded["counters"].items():
            merge = max if key in MAX_COUNTERS else sum
            counters[key] = merge((counters.get(key, 0), value))
    values: dict[str, float] = {}
    for name, _, kind, source in PER_LAYER:
        if kind == "total":
            values[name] = sum(r["total_s"] for n, r in rows.items() if _matches(n, source))
        elif kind == "calls":
            values[name] = sum(r["calls"] for n, r in rows.items() if _matches(n, source))
        elif kind == "self":
            values[name] = sum(r["self_s"] for n, r in rows.items() if n.startswith(source + "."))
        elif kind == "counter":
            values[name] = counters.get(source, 0)
        elif kind == "artifact":
            values[name] = _artifact(out, source)
    cli_total = sum(r["total_s"] for n, r in rows.items() if n.startswith("cli."))
    values["cli.startup_s"] = sum(p.wall_s for p in it.procs) - cli_total
    values["trace.pipeline_s"] = it.pipeline_s
    return values


# -- a run ------------------------------------------------------------------------------------


def set_up(workload: Workload, seed: int, deadline: float) -> tuple[float, str | None]:
    """Warm the interpreter and imports, and make the workload's input file.

    Returns the set-up seconds (median import warm-up plus input generation)
    and the input path, if any.
    """
    os.makedirs(WORK, exist_ok=True)
    warm = []
    for i in range(WARMUPS):
        proc = run_process([sys.executable, "-c", "import swaynet.cli"], os.path.join(WORK, f"warmup{i}.log"), deadline)
        if proc.code != 0:
            raise SystemExit(f"set-up: importing swaynet failed (exit {proc.code})")
        warm.append(proc.wall_s)
    setup_s = median(warm)
    if not workload.ingest_input:
        return setup_s, None
    input_dir = os.path.join(WORK, "input")
    cmd = [sys.executable, "-m", "swaynet.cli", "synth", "--out", input_dir, "--seed", str(seed), "--threads", "1", *C10_SYNTH]
    proc = run_process(cmd, os.path.join(WORK, "input.log"), deadline)
    if proc.code != 0:
        raise SystemExit(f"set-up: generating the input JSONL failed (exit {proc.code})")
    return setup_s + proc.wall_s, os.path.join(input_dir, "events.jsonl")


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s, input_path = set_up(workload, seed, deadline)
    src = tree_digest(SRC, frozenset({"__pycache__"}))[:16]
    records = load_records()
    digests = records.setdefault(src, {}).setdefault(workload.name, {})

    untraced: list[Iteration] = []
    if traced:
        untraced.append(run_iteration(workload, seed, 0, False, input_path, deadline))
    measured: list[Iteration] = []
    started = time.perf_counter()
    while True:
        index = len(untraced) + len(measured)
        it = run_iteration(workload, seed, index, traced, input_path, deadline)
        measured.append(it)
        shutil.rmtree(os.path.join(WORK, f"iter{index}", "out"), ignore_errors=True)
        elapsed = time.perf_counter() - started
        if it.failed or elapsed + it.pipeline_s > seconds or time.monotonic() + 1.5 * it.pipeline_s > deadline:
            break

    iterations = untraced + measured
    for it in iterations:
        if it.digest is None:
            continue
        expected = digests.setdefault(str(seed), it.digest)
        if it.digest != expected:
            it.failed.append(it.stages[-1])
            it.problems.append(f"out tree digest {it.digest[:12]} differs from {expected[:12]} for the same seed")
    save_records(records)

    ok = [it for it in measured if not it.failed] or measured
    result = {
        "iterations": len(measured),
        "attempted": sum(len(it.stages) for it in iterations),
        "failed": sum(len(set(it.failed)) for it in iterations),
        "problems": [p for it in iterations for p in it.problems],
        "pipeline_s": median([it.pipeline_s for it in ok]),
        "prep_s": median([it.prep_s for it in ok]),
        "fit_s": median([it.fit_s for it in ok]) if ok[0].fit_s is not None else None,
        "peak_rss_mb": max(it.peak_rss_mb for it in ok),
        "processes": sum(len(it.procs) for it in ok),
        "setup_s": setup_s,
        "src": src,
    }
    if traced:
        layered = [it for it in measured if it.layers]
        layers = {}
        for name, unit, *_ in PER_LAYER:
            values = [it.layers[name] for it in layered if name in it.layers]
            # Counts repeat exactly for a seed; median_low keeps them whole numbers.
            layers[name] = (median_low if unit == "count" else median)(values) if values else 0
        layers["trace.overhead_s"] = layers["trace.pipeline_s"] - untraced[0].pipeline_s
        result["layers"] = layers
    return result


def machine_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swaynet", "cli.py")):
        print(f"error: no swaynet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    context = {"workload": workload.name, "why": workload.why, "seed": args.seed, "trace": args.trace,
               "sources": result["src"], **machine_context()}
    print("context " + json.dumps(context, sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    n, procs = result["iterations"], result["processes"]
    setup_how = f"median of {WARMUPS} import warm-ups" + (" plus input generation" if workload.ingest_input else "")
    lines = [
        ("pipeline_s", "s", f"median of {n} iteration(s)"),
        ("prep_s", "s", f"median of {n} iteration(s)"),
        ("fit_s", "s", f"median of {n} iteration(s)"),
        ("peak_rss_mb", "MB", f"largest of {procs} stage processes"),
        ("setup_s", "s", setup_how),
    ]
    label = "traced " if args.trace else ""
    for name, unit, how in lines:
        if result[name] is not None:
            print(f"{workload.name} {label}{name} = {result[name]:.6g} {unit} ({how})")
    print(f"{workload.name} error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} stage runs failed)")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit, *_ in PER_LAYER}
        for name, m in metrics.items():
            shown = f"{m['value']:d}" if m["unit"] == "count" else f"{m['value']:.6g}"
            print(f"{workload.name} {name} = {shown} {m['unit']}")
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    record = {"context": context, "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(RUN_LOG, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
