"""Plot-ready data bundles mirroring the analysis figures.

Each CSV emitter writes the rows of one table to an open handle that
already holds the table's header row, spelled once in the shipped schemas
file; `emit_topology` writes one JSON document. The consolidated report
validates every emitted table against that file. No rendering happens
here: plotting is left to the user's tooling.
"""

from __future__ import annotations

import csv
import json
import math
from importlib import resources
from typing import Mapping, Sequence, TextIO

import numpy as np

from .backbone import HeterogeneityReport, backbone_size_curve, strong_disorder_test, topology_report
from .events import CONTENT_CLASSES
from .graph import WeightedDigraph, creator_consumer_partition
from .growth import GrowthPoint, trend_line
from .store import EventColumns, day_counts


def load_schemas() -> dict:
    """schemas.json: each CSV table's columns and description, keyed by basename."""
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


def dump_json(doc, fh) -> None:
    """Write `doc` as `json.dump(doc, fh, sort_keys=True, indent=1)` does,
    byte for byte. With `indent` set, `json` falls back to its pure-Python
    encoder and writes token by token; here each container is joined at
    once, and a list of finite floats is formatted by `float.__repr__` in bulk."""
    fh.write(_json_text(doc, "\n"))


_JSON_FLOATS = {math.inf: "Infinity", -math.inf: "-Infinity"}  # and NaN, as `json` spells them


def _json_text(value, newline: str) -> str:
    """`value` as `json` encodes it at the depth whose line break and
    indent are `newline`, checking types in `json`'s order."""
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return "NaN" if value != value else _JSON_FLOATS.get(value) or float.__repr__(value)
    inner = newline + " "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is float for v in value) and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_json_key(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as `json` writes it: a scalar key becomes the text of its value."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.encoder.encode_basestring_ascii(key if isinstance(key, str) else _json_text(key, ""))


def emit_components(fh: TextIO, original: WeightedDigraph, filtered: WeightedDigraph) -> None:
    w = csv.writer(fh)
    for net_name, g in (("original", original), ("filtered", filtered)):
        part = creator_consumer_partition(g)
        for comp, frac in sorted(part.node_fractions().items()):
            w.writerow([net_name, "node_share", comp, "", f"{frac:.6f}"])
        for (a, b), frac in sorted(part.cross_weight_fractions.items()):
            w.writerow([net_name, "flow_share", a, b, f"{frac:.6f}"])


def emit_retention(fh: TextIO, columns: EventColumns, retained_mask: np.ndarray) -> None:
    w = csv.writer(fh)
    cls_idx = columns.content_class_idx
    for ci, cls in enumerate(CONTENT_CLASSES):
        in_cls = cls_idx == ci
        total = int(in_cls.sum())
        kept = int((in_cls & retained_mask).sum())
        frac = kept / total if total else 0.0
        w.writerow([cls, total, kept, f"{frac:.6f}"])


def emit_temporal(fh: TextIO, columns: EventColumns, retained_mask: np.ndarray) -> None:
    kept_map = dict(zip(*(a.tolist() for a in day_counts(columns.ts, retained_mask))))
    days, orig = day_counts(columns.ts)
    csv.writer(fh).writerows([d, c, kept_map.get(d, 0)] for d, c in zip(days.tolist(), orig.tolist()))


def emit_ternary(fh: TextIO, hist: Mapping[tuple[int, int], int]) -> None:
    csv.writer(fh).writerows([i, j, count] for (i, j), count in sorted(hist.items()))


def emit_coverage(fh: TextIO, curves: Mapping[str, Sequence[tuple[float, float]]]) -> None:
    w = csv.writer(fh)
    for cls in CONTENT_CLASSES:
        for theta, frac in curves.get(cls, []):
            w.writerow([cls, f"{theta:.4f}", f"{frac:.6f}"])


def emit_daily(fh: TextIO, counts_by_class: Mapping[str, Mapping[int, int]]) -> None:
    w = csv.writer(fh)
    for cls in CONTENT_CLASSES:
        for day, count in sorted(counts_by_class.get(cls, {}).items()):
            w.writerow([day, cls, count])


def emit_growth_with_trend(fh: TextIO, points_by_class: Mapping[str, Sequence[GrowthPoint]]) -> None:
    """Growth series merged with trend values computed on the defined points."""
    w = csv.writer(fh)
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
    fh: TextIO,
    fit_doc: Mapping,
    empirical: Mapping[int, Mapping[str, float | None]],
) -> None:
    w = csv.writer(fh)
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


def emit_fit_r0(fh: TextIO, fit_doc: Mapping) -> None:
    csv.writer(fh).writerows(
        [
            wf["window_start"],
            f"{wf['r0_mean']:.6f}",
            f"{wf['r0_std']:.6f}",
            wf["n_accepted"],
            f"{fit_doc['delta']:.8f}",
        ]
        for wf in fit_doc["windows"]
    )


def emit_size_curve(fh: TextIO, g: WeightedDigraph, alpha_grid: Sequence[float]) -> None:
    csv.writer(fh).writerows(
        [
            f"{point.alpha:.6f}",
            f"{point.node_fraction:.6f}",
            f"{point.edge_fraction:.6f}",
            f"{point.weight_fraction:.6f}",
        ]
        for point in backbone_size_curve(g, alpha_grid)
    )


def emit_heterogeneity_summary(fh: TextIO, disorder: HeterogeneityReport) -> None:
    csv.writer(fh).writerows([bucket, n, f"{flagged / n:.6f}"] for bucket, (n, flagged) in disorder.degree_buckets.items())


def emit_topology(fh: TextIO, g: WeightedDigraph, fit_range: tuple[float, float] | None = None) -> None:
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
    dump_json(doc, fh)


def emit_flag_retention(
    fh: TextIO,
    bot_rate: np.ndarray,
    verification_rate: np.ndarray,
    original: np.ndarray,
    retained: np.ndarray,
) -> None:
    """Bot/verification rate histograms for original vs retained users.

    The rates and the two user masks are aligned arrays, one entry per user.
    Buckets are tenths: rint rounds half to even, as Python's round does.
    """
    w = csv.writer(fh)
    for kind, rate in (("bot", bot_rate), ("verified", verification_rate)):
        bucket = np.minimum(np.rint(rate * 10), 10).astype(np.int64)
        orig = np.bincount(bucket[original], minlength=11)
        kept = np.bincount(bucket[original & retained], minlength=11)
        for b in range(11):
            w.writerow([kind, f"{b / 10:.1f}", int(orig[b]), int(kept[b])])
