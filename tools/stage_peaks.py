"""Peak RSS and wall time of each swaynet stage process, at a chosen scale.

    python3 tools/stage_peaks.py --scale K --seed S --out DIR

Synthesizes the c10 config (2,000 aligned users per class, 20,000 swayable
users, 360 days) with K times its 1M events and the same users into
DIR/synth, runs backbone, align, growth, report and fit --runs 10 on that
tree, then ingests its events.jsonl into DIR/ingest. Each stage is its own
``python -m swaynet.cli STAGE ... --threads 1`` process running from this
checkout's src/, measured with os.wait4. One line per stage gives its wall
seconds, its peak RSS (ru_maxrss), that peak per event, and the bytes of
its tree (DIR/synth or DIR/ingest) per event once it has run; a process that
only imports swaynet.cli gives the baseline, and has no tree. A stage that does not exit 0
stops the run: its output is printed and the script exits 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DAY = 86_400
C10_EVENTS = {"factual": 334_000, "misleading": 333_000, "uncertain": 333_000}
C10_USERS = ["--synth-aligned-factual", "2000", "--synth-aligned-misleading", "2000"]
C10_USERS += ["--synth-aligned-uncertain", "2000", "--synth-swayable", "20000"]


def measure(args: list[str], log_path: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MiB of `python args`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    with open(log_path, "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=log, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tree_bytes(root: str) -> int:
    """The size of every file under `root`."""
    return sum(os.path.getsize(os.path.join(d, name)) for d, _, names in os.walk(root) for name in names)


def stages(scale: float, seed: int, out: str) -> list[tuple[str, list[str], str]]:
    synth, ingest = os.path.join(out, "synth"), os.path.join(out, "ingest")
    events = [f"--synth-events-{cls}={round(n * scale)}" for cls, n in C10_EVENTS.items()]
    common = ["--seed", str(seed), "--threads", "1"]
    rows = [
        ("synth", ["synth", "--range-start", "0", "--range-end", str(360 * DAY), *C10_USERS, *events]),
        ("backbone", ["backbone", "--alpha", "0.05"]),
        ("align", ["align", "--theta", "0.95"]),
        ("growth", ["growth"]),
        ("report", ["report"]),
        ("fit", ["fit", "--runs", "10"]),
    ]
    cli = ["-m", "swaynet.cli"]
    return [(name, [*cli, *argv, "--out", synth, *common], synth) for name, argv in rows] + [
        ("ingest", [*cli, "ingest", "--events", os.path.join(synth, "events.jsonl"), "--out", ingest, *common], ingest)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, required=True, help="events as a multiple of the c10 config's 1M")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", required=True, help="work directory; its synth/ and ingest/ trees are replaced")
    args = parser.parse_args()
    n_events = sum(round(n * args.scale) for n in C10_EVENTS.values())
    for tree in ("synth", "ingest"):
        shutil.rmtree(os.path.join(args.out, tree), ignore_errors=True)
    os.makedirs(args.out, exist_ok=True)
    print(f"c10 x {args.scale:g}: {n_events} events, seed {args.seed}")
    print(f"{'stage':<10}{'wall_s':>9}{'peak_MiB':>10}{'B/event':>9}{'disk_B/event':>14}")
    runs = [("import", ["-c", "import swaynet.cli"], None)] + stages(args.scale, args.seed, args.out)
    for name, argv, tree in runs:
        log_path = os.path.join(args.out, f"{name}.log")
        code, wall, rss = measure(argv, log_path)
        disk = "-" if tree is None else f"{tree_bytes(tree) / max(n_events, 1):.0f}"
        print(f"{name:<10}{wall:>9.2f}{rss:>10.1f}{rss * 2**20 / max(n_events, 1):>9.0f}{disk:>14}", flush=True)
        if code != 0:
            with open(log_path) as fh:
                print(f"{name} exited {code}:\n{fh.read()}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
