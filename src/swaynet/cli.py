"""Pipeline command line.

Stages: ingest|synth -> backbone -> align -> growth -> [simulate|fit] ->
report. Every stage reads its declared inputs from the artifacts directory,
writes its declared outputs there, and prints a one-line summary. All
randomness flows from --seed; outputs embed the seed and content hashes of
their inputs, and re-running a stage with identical inputs and seed yields
byte-identical files.

Exit codes: 0 ok, 1 validation error, 2 missing or unreadable input, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import json
import math
import os
import shutil
import sys
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import IO, NamedTuple, TextIO

import numpy as np

from . import events, report as rep
from .alignment import UNALIGNED, classify_all, coverage_curve, involvement_profiles, proportions, ternary_histogram
from .backbone import disparity_filter, significance_arrays, strong_disorder_test
from .events import CONTENT_CLASSES, InvalidEvents, write_events_jsonl, write_flag_rates_csv, write_follower_logs_csv
from .graph import WeightedDigraph, load_binary, save_binary
from .growth import GrowthPoint, TimeWindow, sliding_windows, trend_line, window_growth_rate
from .sir import (
    LOOKBACK_MONTH_SECONDS,
    FitConfig,
    build_cascade_setup,
    fit_parameters,
    sample_rho,
    temporal_network,
)
from .store import EventColumns, Sha256Writer, _replacing, file_sha256, load_or_parse
from .synth import SynthConfig, synthesize

EVENTS_FILE = "events.jsonl"
CACHE_DIR = "events_cache"
LOGS_FILE = "follower_logs.csv"
FLAGS_FILE = "flag_rates.csv"
TRUTH_FILE = "truth.json"
PARSE_ERRORS_FILE = "parse_errors.csv"
BACKBONE_FILE = "backbone.bin"
LABELS_FILE = "alignment_labels.csv"
GROWTH_FILE = "growth.csv"
FIT_FILE = "fit.json"

DEFAULT_ALPHA_GRID = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 1 / np.e, 0.5, 1.0)
DEFAULT_THETA_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10)) + (0.99,)


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class MissingInput(Exception):
    """Missing or unreadable upstream artifact; maps to exit code 2."""


@dataclass
class PipelineConfig:
    out: str = ""
    seed: int = 0
    threads: int = 1
    events: str | None = None
    fmt: str | None = None
    range_start: int | None = None
    range_end: int | None = None
    window_days: int = 30
    step_days: int = 15
    alpha: float = 0.05
    alpha_grid: tuple[float, ...] | None = None
    theta: float = 0.95
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    bins: int = 20
    min_involvement: int = 0
    unfiltered: bool = False
    min_obs: int = 2
    lookback: int = 1
    r0_min: float = 0.0
    r0_max: float = 5.0
    r0_step: float = 0.05
    runs: int = 100
    tolerance: float = 0.10
    delta: float | None = None
    r0: float | None = None
    band_multiplier: float = 2.0
    fit_range: tuple[float, float] | None = None
    gtb_quantiles: tuple[float, ...] = (0.99, 0.999)
    emit_significance: bool = False
    strict: bool = False
    # synthetic generation
    synth_aligned_factual: int = 50
    synth_aligned_misleading: int = 50
    synth_aligned_uncertain: int = 50
    synth_swayable: int = 500
    synth_events_factual: int = 20000
    synth_events_misleading: int = 20000
    synth_events_uncertain: int = 20000
    synth_purity: float = 0.98
    synth_follower_mu: float = 5.0
    synth_follower_sigma: float = 1.2
    synth_bot_rate: float = 0.05
    synth_verified_rate: float = 0.10
    synth_rates_factual: tuple[float, ...] | None = None
    synth_rates_misleading: tuple[float, ...] | None = None
    synth_rates_uncertain: tuple[float, ...] | None = None
    synth_reach_factual: tuple[float, ...] | None = None
    synth_reach_misleading: tuple[float, ...] | None = None
    synth_reach_uncertain: tuple[float, ...] | None = None


# Each key's declared type less its "| None": it picks the key's converter
# and whether its flag takes a value.
_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(PipelineConfig)}
# The values a key allows; argparse and validate_config both read them, so a
# flag and a config file accept the same ones.
_CHOICES = {"fmt": ("jsonl", "csv")}


def validate_config(config: PipelineConfig) -> list[str]:
    """Every violated invariant, named by its offending key; empty means ok."""
    v: list[str] = []
    if not config.out:
        v.append("out: output directory is required")
    if config.threads < 1:
        v.append(f"threads: must be >= 1, got {config.threads}")
    if config.window_days <= 0 or config.step_days <= 0:
        v.append("window_days/step_days: must be positive")
    elif config.step_days > config.window_days:
        v.append("step_days: window step exceeds length")
    if not (0.0 < config.alpha <= 1.0):
        v.append(f"alpha: must be in (0, 1], got {config.alpha}")
    if config.alpha_grid is not None:
        if any(not (0.0 < a <= 1.0) for a in config.alpha_grid):
            v.append("alpha_grid: levels must be in (0, 1]")
        if any(b < a for a, b in zip(config.alpha_grid, config.alpha_grid[1:])):
            v.append("alpha_grid: must be sorted ascending")
    if not (0.5 <= config.theta < 1.0):
        v.append(f"theta: must be in [0.5, 1), got {config.theta}")
    if any(not (0.5 <= t < 1.0) for t in config.theta_grid):
        v.append("theta_grid: thresholds must be in [0.5, 1)")
    if any(b < a for a, b in zip(config.theta_grid, config.theta_grid[1:])):
        v.append("theta_grid: must be sorted ascending")
    if config.bins < 1:
        v.append(f"bins: must be >= 1, got {config.bins}")
    if config.min_involvement < 0:
        v.append("min_involvement: must be >= 0")
    if config.min_obs < 2:
        v.append(f"min_obs: must be >= 2, got {config.min_obs}")
    if config.lookback < 1:
        v.append(f"lookback: must be >= 1, got {config.lookback}")
    if config.r0_step <= 0 or config.r0_max < config.r0_min or config.r0_min < 0:
        v.append("r0_min/r0_max/r0_step: invalid grid")
    if config.runs < 1:
        v.append(f"runs: must be >= 1, got {config.runs}")
    if not (0.0 < config.tolerance <= 1.0):
        v.append(f"tolerance: must be in (0, 1], got {config.tolerance}")
    if config.delta is not None and not (0.0 <= config.delta <= 1.0):
        v.append(f"delta: must be in [0, 1], got {config.delta}")
    if config.r0 is not None and config.r0 < 0:
        v.append(f"r0: must be >= 0, got {config.r0}")
    if config.band_multiplier <= 0:
        v.append("band_multiplier: must be positive")
    if config.fit_range is not None and not (0 < config.fit_range[0] < config.fit_range[1]):
        v.append("fit_range: need 0 < lo < hi")
    if any(not (0.0 < q < 1.0) for q in config.gtb_quantiles):
        v.append("gtb_quantiles: must be in (0, 1)")
    if config.range_start is not None and config.range_end is not None and config.range_start >= config.range_end:
        v.append("range_start/range_end: empty range")
    if not (1 / 3 < config.synth_purity <= 1.0):
        v.append(f"synth_purity: must be in (1/3, 1], got {config.synth_purity}")
    for name in ("synth_bot_rate", "synth_verified_rate"):
        val = getattr(config, name)
        if not (0.0 <= val <= 1.0):
            v.append(f"{name}: must be in [0, 1], got {val}")
    for name in (key for key, kind in _TYPES.items() if key.startswith("synth_") and kind == "int"):
        if getattr(config, name) < 0:
            v.append(f"{name}: must be >= 0")
    for name, allowed in _CHOICES.items():
        val = getattr(config, name)
        if val is not None and val not in allowed:
            v.append(f"{name}: must be one of {', '.join(allowed)}, got {val!r}")
    return v


# -- config plumbing -----------------------------------------------------------


def parse_time(text: str) -> int:
    """Accept integer UTC seconds or a YYYY-MM-DD date (UTC midnight)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    except ValueError:
        raise ConfigError(f"cannot parse time {text!r}; use seconds or YYYY-MM-DD") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes")


def load_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Flat key = value format; '#' starts a comment. Maps each key to its
    raw value and line number."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MissingInput(f"cannot read config file {path}: {exc.strerror}") from None
    values: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(data.splitlines(keepends=True), start=1):  # at \n, \r\n or \r, as a text read splits lines
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = (value.strip(), line_no)
    return values


# One converter per key, from its declared type; a flag's text and a config
# file's value go through the same one.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_floats,
    "tuple[float, float]": _parse_range,
}
_CONVERTERS = {key: parse_time if key in ("range_start", "range_end") else _PARSERS[kind] for key, kind in _TYPES.items()}


def _convert(key: str, raw: str, where: str):
    try:
        return _CONVERTERS[key](raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults < config file < explicit CLI flags."""
    config = PipelineConfig()
    if getattr(args, "config", None):
        for key, (raw, line_no) in load_config_file(args.config).items():
            if key not in _CONVERTERS:
                raise ConfigError(f"unknown config key: {key}")
            setattr(config, key, _convert(key, raw, f"{args.config}:{line_no}: {key}"))
    for key in _CONVERTERS:
        value = getattr(args, key, None)
        if isinstance(value, str):  # a flag's text; store_const flags are already True
            value = _convert(key, value, _flags(key)[0])
        if value is not None:
            setattr(config, key, value)
    return config


def _check(config: PipelineConfig) -> PipelineConfig:
    violations = validate_config(config)
    if violations:
        raise ConfigError("; ".join(violations))
    return config


# -- shared stage helpers --------------------------------------------------------


def _path(config: PipelineConfig, name: str) -> str:
    return os.path.join(config.out, name)


class _If(str):
    """An artifact that a stage reads or writes only under a condition; README's Outputs table names each condition."""


class _Inputs:
    """The artifacts in --out that one stage reads and writes. A stage gets
    each path it reads and each file it writes only from here, and only for a
    name its `_STAGES` row declares, so the meta records exactly what the
    stage read. Every output and the meta are written through
    `store._replacing`: a write that fails leaves the old file as it was."""

    def __init__(self, config: PipelineConfig, stage: str):
        self.config, self.stage, self.row = config, stage, _STAGES[stage]
        self.digests: dict[str, str | None] = {}  # path read -> SHA-256, or None until the meta is written
        self.written: list[str] = []  # every output path handed out, in order

    def _declared(self, name: str, names: tuple[str, ...], role: str) -> str:
        if name not in names:
            raise LookupError(f"the `{self.stage}` stage declares no {role} {name}")
        return _path(self.config, name)

    def require(self, name: str) -> str:
        path = self._declared(name, self.row.reads, "input")
        if not os.path.exists(path):
            raise MissingInput(f"{path} not found; run the `{_PRODUCER[name]}` stage first")
        self.digests.setdefault(path, None)
        return path

    def output(self, name: str, binary: bool = False) -> AbstractContextManager[IO]:
        """An output opened for writing: UTF-8 text with no newline translation, or bytes."""
        self.written.append(path := self._declared(name, self.row.writes, "output"))
        return _replacing(path) if binary else _replacing(path, "w", newline="", encoding="utf-8")

    @contextmanager
    def table(self, name: str) -> Iterator[TextIO]:
        """A CSV output, its header row, from its schemas.json entry, written."""
        with self.output(name) as fh:
            csv.writer(fh).writerow(rep.load_schemas()[os.path.basename(name)]["columns"])
            yield fh

    def emit(self, name: str, emitter: Callable[..., None], *args) -> None:
        """`emitter(handle, *args)` on output `name`: a CSV table, its header row written, or a JSON document."""
        with self.table(name) if name.endswith(".csv") else self.output(name) as fh:
            emitter(fh, *args)

    def remove_stale(self) -> None:
        """Remove each conditional output of the row that this run did not write, unless another stage writes it too."""
        for name in self.row.writes:
            path = _path(self.config, name)
            if isinstance(name, _If) and _PRODUCER[name] == self.stage and path not in self.written and os.path.exists(path):
                os.remove(path)

    def columns(self) -> EventColumns:
        """The event columns; events.jsonl is hashed once, for the cache check and the meta."""
        path = self.require(EVENTS_FILE)
        self.digests[path] = digest = file_sha256(path)
        return load_or_parse(path, _path(self.config, CACHE_DIR), digest)

    def backbone(self) -> WeightedDigraph:
        try:
            return load_binary(self.require(BACKBONE_FILE))
        except ValueError as exc:  # truncated, padded or not a graph file: unreadable, as good as missing
            raise MissingInput(f"{exc}; run the `backbone` stage again") from None

    def write_meta(self, params: dict) -> None:
        """Inputs not hashed yet are hashed now."""
        inputs = {os.path.basename(p): d or file_sha256(p) for p, d in self.digests.items() if os.path.isfile(p)}
        meta = {"stage": self.stage, "seed": self.config.seed, "params": params, "inputs": inputs}
        with _replacing(_path(self.config, f"{self.stage}_meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)


def _dataset_range(config: PipelineConfig, columns: EventColumns) -> tuple[int, int]:
    start = config.range_start
    end = config.range_end
    if start is None or end is None:
        if len(columns) == 0:
            raise ConfigError("range_start/range_end: required for an empty event stream")
        if start is None:
            start = int(columns.ts.min())
        if end is None:
            end = int(columns.ts.max()) + 1
    return start, end


def _time_range(config: PipelineConfig) -> tuple[float, float] | None:
    """The configured [start, end) event filter; a lone bound leaves the other side open."""
    if config.range_start is None and config.range_end is None:
        return None
    start = -math.inf if config.range_start is None else config.range_start
    end = math.inf if config.range_end is None else config.range_end
    return start, end


def _write_events(inputs: _Inputs, columns: EventColumns, digest: str | None = None) -> str:
    """events.jsonl, hashed as it is written, unless `digest` is given: then
    events.jsonl already holds what write_events_jsonl would write, with that
    SHA-256. Then flag rates, the column cache and follower logs; returns the
    digest of events.jsonl. Saving the cache streams the follower table
    into it and maps the columns and table in place of the arrays, so the
    table never sits beside the columns and follower_logs.csv is written from
    the mapped table."""
    if digest is None:
        with inputs.output(EVENTS_FILE, binary=True) as fh:
            write_events_jsonl(columns, sink := Sha256Writer(fh))
        digest = sink.hexdigest()
    with inputs.table(FLAGS_FILE) as fh:
        write_flag_rates_csv(columns, fh)
    columns.save(_path(inputs.config, CACHE_DIR), digest)
    with inputs.table(LOGS_FILE) as fh:
        write_follower_logs_csv(columns.follower_logs(), fh)
    return digest


def _load_labels(inputs: _Inputs, columns: EventColumns) -> tuple[np.ndarray, float]:
    """Each user's aligned class index (-1 for none; labelled users the
    events lack are dropped) and the theta the labels were drawn at."""
    with open(inputs.require(LABELS_FILE), newline="", encoding="utf-8") as fh:
        rows = [(row["user"], row["label"], row["theta"]) for row in csv.DictReader(fh)]
    aligned_class = np.full(len(columns.users), -1, dtype=np.int64)
    for c, cls in enumerate(CONTENT_CLASSES):
        ids = columns.ids(user for user, label, _ in rows if label == cls)
        aligned_class[ids[ids >= 0]] = c
    return aligned_class, float(rows[-1][2]) if rows else inputs.config.theta


def _backbone_pair_mask(columns: EventColumns, backbone: WeightedDigraph) -> np.ndarray:
    """Mask of events whose aggregated edge survived the filter, matched a
    block of events at a time: no event-long pair code or sort temporary."""
    ids, n_users = columns.ids(backbone.labels), len(columns.users)
    src, dst = ids[backbone.edge_src], ids[backbone.edge_dst]
    known = (src >= 0) & (dst >= 0)
    codes, mask = np.sort(src[known] * n_users + dst[known]), np.empty(len(columns), dtype=bool)
    if len(codes) == 0:  # no edge to match, and no code for a clamped index to read
        return np.zeros(len(columns), dtype=bool)
    for lo in range(0, len(mask), 1 << 16):
        block = slice(lo, lo + (1 << 16))
        pair = np.multiply(columns.src[block], n_users, dtype=np.int64)  # int64, as `codes` is: the codes reach n_users^2
        pair += columns.dst[block]
        order = np.argsort(pair)  # searched in ascending order, each search starts where the one before ended
        pair = pair[order]
        found = np.minimum(np.searchsorted(codes, pair), len(codes) - 1)  # the first code >= pair, or the last code
        mask[block][order] = codes[found] == pair
    return mask


# -- stages ---------------------------------------------------------------------


def _clear_event_outputs(config: PipelineConfig) -> None:
    """Remove what an earlier ingest or synth left in --out, so a failed
    stage leaves nothing a later stage could read as current, and neither
    leaves the other's outputs beside its own; an ingest's input is kept."""
    kept = config.events if config.events and os.path.exists(config.events) else None
    for name in _EVENT_OUTPUTS:
        path = _path(config, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.isfile(path) and not (kept and os.path.samefile(path, kept)):
            os.remove(path)


def cmd_ingest(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    if not config.events:
        raise ConfigError("events: input path is required for ingest")
    is_csv = config.fmt == "csv" or (config.fmt is None and config.events.endswith(".csv"))
    try:  # opened before the old outputs are cleared, so an unreadable input leaves them
        fh = open(config.events, "rb")
    except OSError as exc:
        raise MissingInput(f"cannot read input events file {config.events}: {exc.strerror}") from None
    with fh:
        reader = events.ByteChunks(fh)  # read once: it hashes the input as it is parsed
        try:
            if is_csv:
                columns, errors = events.parse_events_csv(reader.text_lines(newline=""), _time_range(config))
            else:
                columns, errors = events.parse_events(reader, _time_range(config))
        except events.NotUTF8 as exc:
            raise InvalidEvents(f"{config.events}: {exc}") from None
        finally:
            _clear_event_outputs(config)
        release_free_heap()  # what the parse freed, so the cache is written beside the columns alone
        # Input that write_events_jsonl would give back byte for byte is copied
        # from the open file, the one parsed and hashed, or left if that file is
        # --out's own events.jsonl, the one file the clearing kept.
        digest, path = reader.hexdigest(), _path(config, EVENTS_FILE)
        copyable = bool(reader.canonical) and fh.seekable()  # a pipe cannot be read again
        in_place = os.path.exists(path) and os.path.samestat(os.fstat(fh.fileno()), os.stat(path))
        if copyable and not in_place:
            fh.seek(0)
            with inputs.output(EVENTS_FILE, binary=True) as out:
                shutil.copyfileobj(fh, out)
    if errors:
        with inputs.table(PARSE_ERRORS_FILE) as out:
            csv.writer(out).writerows([err.line_no, err.message] for err in errors)
        if config.strict:
            raise InvalidEvents(f"{len(errors)} invalid lines (see {PARSE_ERRORS_FILE})")
    params = {
        "n_events": len(columns),
        "n_users": len(columns.users),
        "n_errors": len(errors),
        "ts_min": int(columns.ts.min()) if len(columns) else None,
        "ts_max": int(columns.ts.max()) if len(columns) else None,
    }
    written = _write_events(inputs, columns, digest if copyable else None)
    inputs.digests[config.events] = written if in_place else digest
    return f"ingest: {len(columns)} events, {len(columns.users)} users, {len(errors)} invalid lines -> {config.out}", params


def cmd_synth(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    if config.range_start is None or config.range_end is None:
        raise ConfigError("range_start/range_end: required for synth")
    synth_config = SynthConfig(
        start=config.range_start,
        end=config.range_end,
        aligned_users=_class_table(config, "synth_aligned"),
        swayable_users=config.synth_swayable,
        events_per_class=_class_table(config, "synth_events"),
        purity=config.synth_purity,
        follower_mu=config.synth_follower_mu,
        follower_sigma=config.synth_follower_sigma,
        planted_rates=_class_table(config, "synth_rates"),
        swayable_reach=_class_table(config, "synth_reach"),
        bot_rate=config.synth_bot_rate,
        verified_rate=config.synth_verified_rate,
    )
    try:
        result = synthesize(synth_config, config.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    columns, truth, n_users = result.columns(), result.truth(), len(result.user_labels)
    del result  # its source arrays would sit beside the columns while they are written
    _clear_event_outputs(config)
    params = {
        "n_events": len(columns),
        "n_users": n_users,
        "ts_min": int(columns.ts.min()) if len(columns) else None,
        "ts_max": int(columns.ts.max()) if len(columns) else None,
        "purity": synth_config.purity,
    }
    _write_events(inputs, columns)
    with inputs.output(TRUTH_FILE) as fh:
        json.dump(truth, fh, sort_keys=True, indent=1)
    return f"synth: {len(columns)} events, {n_users} users, seed {config.seed} -> {config.out}", params


def _class_table(config: PipelineConfig, prefix: str) -> dict | None:
    """Class -> the value of key `<prefix>_<class>`, over the classes that set one; None if none does."""
    return {cls: value for cls in CONTENT_CLASSES if (value := getattr(config, f"{prefix}_{cls}")) is not None} or None


def cmd_backbone(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    columns = inputs.columns()
    g = columns.build_graph(columns.event_mask(_time_range(config)))
    filtered = disparity_filter(g, config.alpha)
    with inputs.output(BACKBONE_FILE, binary=True) as fh:
        save_binary(filtered, fh)
    params = {
        "alpha": config.alpha,
        "original": {"nodes": g.n_nodes, "edges": g.n_edges, "weight": g.total_weight},
        "filtered": {"nodes": filtered.n_nodes, "edges": filtered.n_edges, "weight": filtered.total_weight},
        "fractions": {
            "nodes": filtered.n_nodes / g.n_nodes if g.n_nodes else 0.0,
            "edges": filtered.n_edges / g.n_edges if g.n_edges else 0.0,
            "weight": filtered.total_weight / g.total_weight if g.total_weight else 0.0,
        },
    }
    if config.alpha_grid:
        inputs.emit("size_curve.csv", rep.emit_size_curve, g, config.alpha_grid)
    if config.emit_significance:
        with inputs.table("significance.csv") as fh:
            values = [a.tolist() for a in significance_arrays(g)]
            csv.writer(fh).writerows([s, d, weight] + [f"{x:.10g}" for x in xs] for (s, d, weight), *xs in zip(g.edges(), *values))
    return (
        f"backbone: alpha={config.alpha} kept {filtered.n_nodes}/{g.n_nodes} nodes, "
        f"{filtered.n_edges}/{g.n_edges} edges, {filtered.total_weight}/{g.total_weight} weight"
    ), params


def cmd_diagnose(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    g = inputs.columns().build_graph()
    if g.n_nodes == 0:  # checked before any output: there is no topology to report
        raise InvalidEvents(f"{EVENTS_FILE} holds no events, so the graph is empty; run `ingest` or `synth` on events")
    grid = config.alpha_grid or DEFAULT_ALPHA_GRID
    inputs.emit("size_curve.csv", rep.emit_size_curve, g, grid)
    disorder = strong_disorder_test(g, config.band_multiplier)
    with inputs.table("heterogeneity.csv") as fh:
        labels = g.labels
        fields = (disorder.node, disorder.direction, disorder.k, disorder.upsilon, disorder.null_mean, disorder.null_std, disorder.flagged)
        csv.writer(fh).writerows(
            [labels[i], direction, k, f"{ups:.8g}", f"{mu:.8g}", f"{sigma:.8g}", int(flagged)]
            for i, direction, k, ups, mu, sigma, flagged in zip(*(a.tolist() for a in fields))
        )
    inputs.emit("heterogeneity_buckets.csv", rep.emit_heterogeneity_summary, disorder)
    inputs.emit("topology.json", rep.emit_topology, g, config.fit_range)
    with inputs.table("gtb_overlap.csv") as fh:
        w, weights = csv.writer(fh), g.edge_weight
        _, _, _, _, alpha = significance_arrays(g)
        for level in grid:
            in_backbone = alpha < level  # the disparity filter's rule
            for q in config.gtb_quantiles:
                w_min = int(np.ceil(np.quantile(weights, q))) if len(weights) else 0
                above = weights >= w_min  # the global-threshold rule
                n_gtb = int(above.sum())
                if n_gtb == 0 or not in_backbone.any():
                    overlap = 0.0
                else:
                    overlap = int((above & in_backbone).sum()) / n_gtb
                w.writerow([f"{level:.6f}", f"{q:.4f}", w_min, n_gtb, f"{overlap:.6f}"])
    params = {"band_multiplier": config.band_multiplier, "alpha_grid": list(grid)}
    return f"diagnose: {len(disorder.k)} node sides, flagged fraction {disorder.flagged_fraction:.3f}", params


def cmd_align(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    columns = inputs.columns()
    src, dst, cls_idx = columns.src, columns.dst, columns.content_class_idx
    if not config.unfiltered:
        backbone = inputs.backbone()
        retained = _backbone_pair_mask(columns, backbone)
        src, dst, cls_idx = src[retained], dst[retained], cls_idx[retained]
    involvement = involvement_profiles(src, dst, cls_idx, len(columns.users))
    labels = classify_all(involvement, config.theta, config.min_involvement)
    props = proportions(involvement)
    total = involvement.sum(axis=1)
    involved = np.flatnonzero(total > 0)
    names = (*CONTENT_CLASSES, UNALIGNED)  # label -1 picks the last
    theta = f"{config.theta:.4f}"
    with inputs.table(LABELS_FILE) as fh:
        users = [columns.users[u] for u in involved.tolist()]
        rows = sorted(zip(users, labels[involved].tolist(), props[involved].tolist(), total[involved].tolist()))
        csv.writer(fh).writerows([user, names[label], theta] + [f"{p:.6f}" for p in prop] + [n] for user, label, prop, n in rows)
    inputs.emit("ternary.csv", rep.emit_ternary, ternary_histogram(involvement[involved], config.bins))
    curves = {}
    for c, cls in enumerate(CONTENT_CLASSES):
        in_class = cls_idx == c
        if in_class.any():
            curves[cls] = coverage_curve(props[:, c], src[in_class], dst[in_class], config.theta_grid)
    inputs.emit("coverage.csv", rep.emit_coverage, curves)
    counts = {cls: int(np.count_nonzero(labels == c)) for c, cls in enumerate(CONTENT_CLASSES)}
    params = {"theta": config.theta, "unfiltered": config.unfiltered, "bins": config.bins, "aligned_counts": counts}
    return f"align: theta={config.theta} -> {sum(counts.values())} aligned users {counts}", params


def cmd_growth(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    columns = inputs.columns()
    aligned_class, theta = _load_labels(inputs, columns)
    start, end = _dataset_range(config, columns)
    windows = _windows(config, start, end)
    table = columns.follower_logs()
    points_by_class: dict[str, list[GrowthPoint]] = {}
    for c, cls in enumerate(CONTENT_CLASSES):
        aligned = np.flatnonzero(aligned_class == c)
        points_by_class[cls] = [window_growth_rate(table, aligned, win, cls, config.min_obs) for win in windows]
    with inputs.table(GROWTH_FILE) as fh:
        csv.writer(fh).writerows(
            [
                p.window.start,
                p.window.end,
                int(p.window.partial),
                cls,
                "" if p.rate is None else f"{p.rate:.8f}",
                p.n_active,
                p.f_first,
                p.f_last,
            ]
            for cls in CONTENT_CLASSES
            for p in points_by_class[cls]
        )
    inputs.emit("daily_counts.csv", rep.emit_daily, columns.daily_counts_by_class(aligned_class))
    with inputs.table("trend.csv") as fh:
        w = csv.writer(fh)
        for cls in CONTENT_CLASSES:
            defined = [p for p in points_by_class[cls] if p.rate is not None]
            if not defined:
                continue
            smoothed = trend_line([p.rate for p in defined])
            for p, value in zip(defined, smoothed.values):
                w.writerow([p.window.start, cls, f"{value:.8f}", int(smoothed.polynomial_applied)])
    n_defined = sum(1 for ps in points_by_class.values() for p in ps if p.rate is not None)
    params = {"windows": len(windows), "theta": theta, "defined_points": n_defined}
    return f"growth: {len(windows)} windows x {len(CONTENT_CLASSES)} classes, {n_defined} defined points", params


def _windows(config: PipelineConfig, start: int, end: int) -> list[TimeWindow]:
    try:
        return sliding_windows(start, end, config.window_days * 86400, config.step_days * 86400)
    except ValueError as exc:  # a dataset range shorter than one window is a data error
        raise ConfigError(f"range [{start}, {end}): {exc}") from None


def _fit_windows(config: PipelineConfig, columns: EventColumns) -> list[TimeWindow]:
    start, end = _dataset_range(config, columns)
    lookback = config.lookback * LOOKBACK_MONTH_SECONDS
    return [w for w in _windows(config, start, end) if not w.partial and w.start - lookback >= start]


def _build_setups(config: PipelineConfig, columns: EventColumns, aligned_class: np.ndarray):
    """Window start -> class -> cascade setup, over the fit windows."""
    windows = _fit_windows(config, columns)
    if not windows:
        raise ConfigError("lookback: no window has a fully covered lookback period")
    aligned_any = aligned_class >= 0
    in_class = [aligned_class == c for c in range(len(CONTENT_CLASSES))]
    snapshots = columns.follower_logs()
    return {
        window.start: {
            cls: build_cascade_setup(
                temporal_network(columns, window, config.lookback, cls), window, in_class[c], aligned_any, snapshots
            )
            for c, cls in enumerate(CONTENT_CLASSES)
        }
        for window in windows
    }


def cmd_simulate(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    if config.delta is None or config.r0 is None:
        raise ConfigError("delta/r0: both are required for simulate")
    columns = inputs.columns()
    setups = _build_setups(config, columns, _load_labels(inputs, columns)[0])
    with inputs.table("simulate.csv") as fh:
        w = csv.writer(fh)
        for w_start in sorted(setups):
            for cls in CONTENT_CLASSES:
                setup = setups[w_start][cls]
                stats = ["", ""]
                if setup.simulable:
                    r_hat = config.delta * sample_rho(setup, [config.r0], config.runs, config.seed, w_start, cls)[0]
                    stats = [f"{r_hat.mean():.8f}", f"{r_hat.std():.8f}"]
                w.writerow([w_start, cls, config.delta, config.r0, *stats, len(setup.f_a), len(setup.f_sw)])
    params = {"delta": config.delta, "r0": config.r0, "runs": config.runs, "lookback": config.lookback}
    return f"simulate: delta={config.delta} r0={config.r0} over {len(setups)} windows", params


def _growth_points(inputs: _Inputs) -> dict[str, list[GrowthPoint]]:
    """growth.csv as points per class, in file order."""
    points: dict[str, list[GrowthPoint]] = {cls: [] for cls in CONTENT_CLASSES}
    with open(inputs.require(GROWTH_FILE), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            window = TimeWindow(int(row["window_start"]), int(row["window_end"]), bool(int(row["partial"])))
            rate = float(row["rate"]) if row["rate"] != "" else None
            points[row["class"]].append(
                GrowthPoint(window, row["class"], rate, int(row["n_active"]), int(row["f_first"]), int(row["f_last"]))
            )
    return points


def _empirical(points_by_class: dict[str, list[GrowthPoint]]) -> dict[int, dict[str, float | None]]:
    """Window start -> class -> measured rate, over the non-partial windows."""
    empirical: dict[int, dict[str, float | None]] = {}
    for cls, points in points_by_class.items():
        for p in points:
            if not p.window.partial:
                empirical.setdefault(p.window.start, {})[cls] = p.rate
    return empirical


def cmd_fit(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    columns = inputs.columns()
    aligned_class, _ = _load_labels(inputs, columns)
    empirical = _empirical(_growth_points(inputs))
    setups = _build_setups(config, columns, aligned_class)
    fit_config = FitConfig(
        r0_min=config.r0_min,
        r0_max=config.r0_max,
        r0_step=config.r0_step,
        runs_per_point=config.runs,
        tolerance_pct=config.tolerance,
        lookback_months=config.lookback,
        seed=config.seed,
    )
    result = fit_parameters(setups, empirical, fit_config, threads=config.threads)
    doc = result.to_json_dict()
    with inputs.output(FIT_FILE) as fh:
        rep.dump_json(doc, fh)
    inputs.emit("fig4_rates.csv", rep.emit_fit_rates, doc, empirical)
    inputs.emit("fig4_r0.csv", rep.emit_fit_r0, doc)
    params = {
        "delta": result.delta,
        "objective": result.objective,
        "n_windows": len(result.windows),
        "n_excluded": len(result.excluded),
        "tolerance": config.tolerance,
        "lookback": config.lookback,
    }
    return (
        f"fit: delta={result.delta:.6f} objective={result.objective:.6g} "
        f"windows={len(result.windows)} excluded={len(result.excluded)}"
    ), params


def cmd_report(config: PipelineConfig, inputs: _Inputs) -> tuple[str, dict]:
    columns = inputs.columns()
    backbone = inputs.backbone()
    for name in (read for read in inputs.row.reads if not isinstance(read, _If)):  # each found before report/ is made
        inputs.require(name)
    if backbone.n_nodes == 0:  # likewise: there is no topology to report
        raise InvalidEvents(f"{BACKBONE_FILE} is an empty graph; run the `backbone` stage again with a larger alpha")
    out_dir = _path(config, "report")
    os.makedirs(out_dir, exist_ok=True)
    schemas = rep.load_schemas()

    g = columns.build_graph()
    retained = _backbone_pair_mask(columns, backbone)
    inputs.emit("report/fig1a_components.csv", rep.emit_components, g, backbone)
    inputs.emit("report/fig1b_retention.csv", rep.emit_retention, columns, retained)
    inputs.emit("report/fig1c_temporal.csv", rep.emit_temporal, columns, retained)

    # Fig 2: byte copies of the align stage's tables.
    for source, copy in (("ternary.csv", "report/fig2a_ternary.csv"), ("coverage.csv", "report/fig2b_coverage.csv")):
        with open(inputs.require(source), "rb") as fh, inputs.output(copy, binary=True) as out:
            shutil.copyfileobj(fh, out)

    # Fig 3 from the growth stage.
    aligned_class, _ = _load_labels(inputs, columns)
    points_by_class = _growth_points(inputs)
    inputs.emit("report/fig3a_daily.csv", rep.emit_daily, columns.daily_counts_by_class(aligned_class))
    inputs.emit("report/fig3b_growth.csv", rep.emit_growth_with_trend, points_by_class)

    # Fig 4 only when the fit stage ran.
    fit_included = os.path.exists(_path(config, FIT_FILE))
    if fit_included:
        with open(inputs.require(FIT_FILE), encoding="utf-8") as fh:
            fit_doc = json.load(fh)
        inputs.emit("report/fig4_rates.csv", rep.emit_fit_rates, fit_doc, _empirical(points_by_class))
        inputs.emit("report/fig4_r0.csv", rep.emit_fit_r0, fit_doc)

    grid = config.alpha_grid or DEFAULT_ALPHA_GRID
    inputs.emit("report/supp_size_curve.csv", rep.emit_size_curve, g, grid)
    inputs.emit("report/supp_heterogeneity.csv", rep.emit_heterogeneity_summary, rep.strong_disorder_test(g, config.band_multiplier))
    inputs.emit("report/supp_topology.json", rep.emit_topology, backbone, config.fit_range)
    _, bot_rate, verification_rate = columns.flag_rates()
    # Every interned user is an endpoint of the unfiltered graph g.
    original, kept = np.ones(len(columns.users), dtype=bool), np.zeros(len(columns.users), dtype=bool)
    ids = columns.ids(backbone.labels)
    kept[ids[ids >= 0]] = True
    inputs.emit("report/supp_flag_retention.csv", rep.emit_flag_retention, bot_rate, verification_rate, original, kept)

    for path in inputs.written:
        if path.endswith(".csv"):
            rep.validate_table(path, schemas)
    return f"report: {len(inputs.written)} tables -> {out_dir}", {"n_tables": len(inputs.written), "fit_included": fit_included}


# -- entry point ------------------------------------------------------------------


# The flags every stage takes ahead of its own; `config` is the one that is
# not a PipelineConfig key.
_COMMON = ("out", "config", "seed", "threads", "range_start", "range_end")
class _Stage(NamedTuple):
    """A stage's command, help line and flag keys, and the artifacts in --out it reads and writes (_If marks a conditional
    one). events_cache/ goes with reading events.jsonl: any stage rewrites it on a cache miss, so no row declares it."""

    command: Callable[[PipelineConfig, _Inputs], tuple[str, dict]]
    help: str
    keys: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


_STAGES = {
    "ingest": _Stage(cmd_ingest, "parse, validate and label a raw event stream", ("events", "fmt", "strict"),
                     reads=(), writes=(EVENTS_FILE, FLAGS_FILE, LOGS_FILE, _If(PARSE_ERRORS_FILE))),
    "synth": _Stage(cmd_synth, "generate a synthetic dataset with planted structure",
                    (*(f"synth_aligned_{cls}" for cls in CONTENT_CLASSES), "synth_swayable",
                     *(f"synth_events_{cls}" for cls in CONTENT_CLASSES), "synth_purity"),
                    reads=(), writes=(EVENTS_FILE, FLAGS_FILE, LOGS_FILE, TRUTH_FILE)),
    "backbone": _Stage(cmd_backbone, "extract the disparity-filter backbone", ("alpha", "alpha_grid", "emit_significance"),
                       reads=(EVENTS_FILE,), writes=(BACKBONE_FILE, _If("size_curve.csv"), _If("significance.csv"))),
    "diagnose": _Stage(cmd_diagnose, "heterogeneity, topology, and size-curve diagnostics", ("alpha_grid", "band_multiplier", "fit_range"),
                       reads=(EVENTS_FILE,),
                       writes=("size_curve.csv", "heterogeneity.csv", "heterogeneity_buckets.csv", "topology.json", "gtb_overlap.csv")),
    "align": _Stage(cmd_align, "classify highly aligned users", ("theta", "theta_grid", "bins", "min_involvement", "unfiltered"),
                    reads=(EVENTS_FILE, _If(BACKBONE_FILE)), writes=(LABELS_FILE, "ternary.csv", "coverage.csv")),
    "growth": _Stage(cmd_growth, "measure windowed follower growth", ("min_obs",),
                     reads=(EVENTS_FILE, LABELS_FILE), writes=(GROWTH_FILE, "daily_counts.csv", "trend.csv")),
    "simulate": _Stage(cmd_simulate, "simulate growth rates at fixed delta and R0", ("delta", "r0", "runs", "lookback"),
                       reads=(EVENTS_FILE, LABELS_FILE), writes=("simulate.csv",)),
    "fit": _Stage(cmd_fit, "fit delta and per-window R0 against empirical rates",
                  ("lookback", "tolerance", "runs", "r0_min", "r0_max", "r0_step"),
                  reads=(EVENTS_FILE, LABELS_FILE, GROWTH_FILE), writes=(FIT_FILE, "fig4_rates.csv", "fig4_r0.csv")),
    "report": _Stage(cmd_report, "consolidated plot-ready bundle", ("alpha_grid", "band_multiplier", "fit_range"),
                     reads=(EVENTS_FILE, BACKBONE_FILE, LABELS_FILE, GROWTH_FILE, "ternary.csv", "coverage.csv", _If(FIT_FILE)),
                     writes=("report/fig1a_components.csv", "report/fig1b_retention.csv", "report/fig1c_temporal.csv",
                             "report/fig2a_ternary.csv", "report/fig2b_coverage.csv", "report/fig3a_daily.csv", "report/fig3b_growth.csv",
                             _If("report/fig4_rates.csv"), _If("report/fig4_r0.csv"), "report/supp_size_curve.csv",
                             "report/supp_heterogeneity.csv", "report/supp_topology.json", "report/supp_flag_retention.csv")),
}
# The stages that write each artifact, named when a stage finds it missing.
_PRODUCER = {name: " or ".join(s for s, row in _STAGES.items() if name in row.writes) for row in _STAGES.values() for name in row.writes}
# Every file or directory that ingest or synth writes into --out, which each clears first.
_EVENT_OUTPUTS = tuple(dict.fromkeys(name for s in ("ingest", "synth") for name in (*_STAGES[s].writes, CACHE_DIR, f"{s}_meta.json")))
# A key's flags, where they are not `--` and the key with dashes.
_FLAGS = {"fmt": ("--format",), "lookback": ("--lookback", "--n")}
_HELP = {
    "out": "artifacts directory",
    "config": "flat key = value config file; flags override",
    "events": "input .jsonl or .csv event file",
}


def _flags(key: str) -> tuple[str, ...]:
    return _FLAGS.get(key, ("--" + key.replace("_", "-"),))


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per stage; a flag's value stays text until resolve_config
    converts it, and a bool key's flag takes no value."""
    parser = argparse.ArgumentParser(prog="swaynet", description=__doc__)
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage, row in _STAGES.items():
        p = sub.add_parser(stage, help=row.help)
        for key in (*_COMMON, *row.keys):
            kind = {"action": "store_const", "const": True} if _TYPES.get(key) == "bool" else {"choices": _CHOICES.get(key)}
            p.add_argument(*_flags(key), dest=key, help=_HELP.get(key), **kind)
    return parser


_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None  # the C library: glibc's allocator settings


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 64 KiB: each larger block is mapped alone
    and unmapped when freed, so peak RSS follows live arrays, not reused heap."""
    if hasattr(_LIBC, "mallopt"):
        _LIBC.mallopt(-3, 1 << 16)  # M_MMAP_THRESHOLD; a set value also stops glibc raising it


def release_free_heap() -> None:
    """Return the heap's free pages to the system (glibc's malloc_trim): the
    small blocks a parse frees stay resident otherwise."""
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(ctypes.c_size_t(0))


def run(argv: list[str] | None = None) -> int:
    pin_mmap_threshold()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _check(resolve_config(args))
        os.makedirs(config.out, exist_ok=True)
        inputs = _Inputs(config, args.stage)
        summary, params = inputs.row.command(config, inputs)
        inputs.remove_stale()
        inputs.write_meta(params)
        print(summary)
        return 0
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    except InvalidEvents as exc:
        print(f"error: invalid data: {exc}", file=sys.stderr)
        return 1
    except MissingInput as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
