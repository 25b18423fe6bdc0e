"""Median, quartiles and spread of the benchmark runs recorded in a checkout.

    python3 perfbench/summary.py [--workload NAME] [--last N]

Every run of ``perfbench/run.py`` appends one line to
``.perfbench_state/runs.jsonl``. This prints, per sources digest, workload,
trace mode and metric: the sample count, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

RUN_LOG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_state", "runs.jsonl")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile; needs two or more values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(records: list[dict]) -> dict[tuple[str, str, int], dict[str, list[float]]]:
    """Metric values grouped by (sources, workload, trace), in run order."""
    groups: dict[tuple[str, str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        ctx = rec["context"]
        for name, value in rec["metrics"].items():
            groups[(ctx["sources"], ctx["workload"], ctx["trace"])][name].append(value)
    return groups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="only this workload")
    parser.add_argument("--last", type=int, default=0, help="only the last N runs of each group")
    args = parser.parse_args(argv)
    if not os.path.exists(RUN_LOG):
        print(f"error: no runs recorded in {RUN_LOG}", file=sys.stderr)
        return 2
    with open(RUN_LOG) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if args.workload:
        records = [r for r in records if r["context"]["workload"] == args.workload]
    for (sources, workload, trace), metrics in sorted(summarize(records).items()):
        print(f"{workload} trace={trace} sources={sources}")
        for name, values in metrics.items():
            values = values[-args.last:] if args.last else values
            if len(values) < 2:
                print(f"  {name}: n=1 value {values[0]:.6g}")
                continue
            q1, med, q3 = quartiles(values)
            share = f"{(q3 - q1) / med:.4f}" if med else "n/a"
            print(f"  {name}: n={len(values)} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
