"""Plot-ready data bundles mirroring the analysis figures.

Each emitter writes one CSV/JSON table; the consolidated report validates
every emitted table against the shipped schemas file. No rendering happens
here: plotting is left to the user's tooling.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .backbone import HeterogeneityReport, backbone_size_curve, strong_disorder_test, topology_report
from .events import CONTENT_CLASSES
from .graph import WeightedDigraph, creator_consumer_partition
from .growth import SECONDS_PER_DAY, GrowthPoint, trend_line
from .store import EventColumns


def load_schemas() -> dict:
    with resources.files("swaynet").joinpath("schemas.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def validate_table(path: str, schemas: Mapping[str, dict]) -> None:
    """Check an emitted CSV's header against the shipped schema."""
    name = path.rsplit("/", 1)[-1]
    schema = schemas.get(name)
    if schema is None:
        raise ValueError(f"no schema registered for {name}")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    if header != schema["columns"]:
        raise ValueError(f"{name}: header {header} != schema {schema['columns']}")


def _writer(path: str):
    fh = open(path, "w", newline="", encoding="utf-8")
    return fh, csv.writer(fh)


def emit_components(path: str, original: WeightedDigraph, filtered: WeightedDigraph) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["network", "kind", "source", "target", "value"])
        for net_name, g in (("original", original), ("filtered", filtered)):
            part = creator_consumer_partition(g)
            for comp, frac in sorted(part.node_fractions().items()):
                w.writerow([net_name, "node_share", comp, "", f"{frac:.6f}"])
            for (a, b), frac in sorted(part.cross_weight_fractions.items()):
                w.writerow([net_name, "flow_share", a, b, f"{frac:.6f}"])


def emit_retention(path: str, columns: EventColumns, retained_mask: np.ndarray) -> None:
    fh, w = _writer(path)
    cls_idx = columns.content_class_idx
    with fh:
        w.writerow(["class", "original_weight", "retained_weight", "retained_fraction"])
        for ci, cls in enumerate(CONTENT_CLASSES):
            in_cls = cls_idx == ci
            total = int(in_cls.sum())
            kept = int((in_cls & retained_mask).sum())
            frac = kept / total if total else 0.0
            w.writerow([cls, total, kept, f"{frac:.6f}"])


def emit_temporal(path: str, columns: EventColumns, retained_mask: np.ndarray) -> None:
    fh, w = _writer(path)
    day = columns.ts // SECONDS_PER_DAY
    days, orig = np.unique(day, return_counts=True)
    kept_map = dict(zip(*np.unique(day[retained_mask], return_counts=True)))
    with fh:
        w.writerow(["day", "original_count", "retained_count"])
        for d, c in zip(days, orig):
            w.writerow([int(d), int(c), int(kept_map.get(d, 0))])


def emit_ternary(path: str, hist: Mapping[tuple[int, int], int]) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["i", "j", "count"])
        for (i, j), count in sorted(hist.items()):
            w.writerow([i, j, count])


def emit_coverage(path: str, curves: Mapping[str, Sequence[tuple[float, float]]]) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["class", "theta", "fraction"])
        for cls in CONTENT_CLASSES:
            for theta, frac in curves.get(cls, []):
                w.writerow([cls, f"{theta:.4f}", f"{frac:.6f}"])


def emit_daily(path: str, counts_by_class: Mapping[str, Mapping[int, int]]) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["day", "class", "count"])
        for cls in CONTENT_CLASSES:
            for day, count in sorted(counts_by_class.get(cls, {}).items()):
                w.writerow([day, cls, count])


def emit_growth_with_trend(path: str, points_by_class: Mapping[str, Sequence[GrowthPoint]]) -> None:
    """Growth series merged with trend values computed on the defined points."""
    fh, w = _writer(path)
    with fh:
        w.writerow(["window_start", "class", "rate", "n_active", "f_first", "f_last", "trend"])
        for cls in CONTENT_CLASSES:
            points = points_by_class.get(cls, [])
            defined = [p for p in points if p.rate is not None]
            trend_map = {}
            if defined:
                smoothed = trend_line([p.rate for p in defined])
                trend_map = {p.window.start: v for p, v in zip(defined, smoothed.values)}
            for p in points:
                w.writerow(
                    [
                        p.window.start,
                        cls,
                        "" if p.rate is None else f"{p.rate:.8f}",
                        p.n_active,
                        p.f_first,
                        p.f_last,
                        "" if p.window.start not in trend_map else f"{trend_map[p.window.start]:.8f}",
                    ]
                )


def emit_fit_rates(
    path: str,
    fit_doc: Mapping,
    empirical: Mapping[int, Mapping[str, float | None]],
) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["window_start", "class", "empirical_rate", "simulated_mean", "simulated_std"])
        for wf in fit_doc["windows"]:
            start = wf["window_start"]
            for cls in CONTENT_CLASSES:
                sim = wf["simulated_rates"].get(cls)
                emp = empirical.get(start, {}).get(cls)
                w.writerow(
                    [
                        start,
                        cls,
                        "" if emp is None else f"{emp:.8f}",
                        "" if sim is None else f"{sim['mean']:.8f}",
                        "" if sim is None else f"{sim['std']:.8f}",
                    ]
                )


def emit_fit_r0(path: str, fit_doc: Mapping) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["window_start", "r0_mean", "r0_std", "n_accepted", "delta"])
        for wf in fit_doc["windows"]:
            w.writerow(
                [
                    wf["window_start"],
                    f"{wf['r0_mean']:.6f}",
                    f"{wf['r0_std']:.6f}",
                    wf["n_accepted"],
                    f"{fit_doc['delta']:.8f}",
                ]
            )


def emit_size_curve(path: str, g: WeightedDigraph, alpha_grid: Sequence[float]) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["alpha", "node_fraction", "edge_fraction", "weight_fraction"])
        for point in backbone_size_curve(g, alpha_grid):
            w.writerow(
                [
                    f"{point.alpha:.6f}",
                    f"{point.node_fraction:.6f}",
                    f"{point.edge_fraction:.6f}",
                    f"{point.weight_fraction:.6f}",
                ]
            )


def emit_heterogeneity_summary(path: str, disorder: HeterogeneityReport) -> None:
    fh, w = _writer(path)
    with fh:
        w.writerow(["degree_bucket", "n", "flagged_fraction"])
        for bucket, (n, flagged) in disorder.degree_buckets.items():
            w.writerow([bucket, n, f"{flagged / n:.6f}"])


def emit_topology(path: str, g: WeightedDigraph, fit_range: tuple[float, float] | None = None) -> None:
    rep = topology_report(g, fit_range)
    doc = {
        "average_clustering": rep.average_clustering,
        "power_law": None
        if rep.power_law is None
        else {
            "beta": rep.power_law.beta,
            "fit_range": list(rep.power_law.fit_range),
            "n_points": rep.power_law.n_points,
        },
        "in_degree_ccdf": [[k, p] for k, p in rep.in_degree_ccdf],
        "out_degree_ccdf": [[k, p] for k, p in rep.out_degree_ccdf],
        "weight_distribution": [[v, c] for v, c in rep.weight_distribution],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def emit_flag_retention(
    path: str,
    bot_rate: np.ndarray,
    verification_rate: np.ndarray,
    original: np.ndarray,
    retained: np.ndarray,
) -> None:
    """Bot/verification rate histograms for original vs retained users.

    The rates and the two user masks are aligned arrays, one entry per user.
    Buckets are tenths: rint rounds half to even, as Python's round does.
    """
    fh, w = _writer(path)
    with fh:
        w.writerow(["kind", "rate_bucket", "original_users", "retained_users"])
        for kind, rate in (("bot", bot_rate), ("verified", verification_rate)):
            bucket = np.minimum(np.rint(rate * 10), 10).astype(np.int64)
            orig = np.bincount(bucket[original], minlength=11)
            kept = np.bincount(bucket[original & retained], minlength=11)
            for b in range(11):
                w.writerow([kind, f"{b / 10:.1f}", int(orig[b]), int(kept[b])])
