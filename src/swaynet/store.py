"""Columnar event store: a cache the pipeline stages share.

events.jsonl stays the canonical interchange format; this cache holds the
same records as flat numpy columns plus an interned user table, so graph
construction and log derivation run vectorized instead of re-parsing JSON
in every stage. Cache files are raw .npy (deterministic bytes) keyed to the
source file by content hash.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .events import (
    CATEGORY_TOKENS,
    CLASS_BY_CATEGORY,
    CONTENT_CLASSES,
    DST_BOT,
    DST_VERIFIED,
    SRC_BOT,
    SRC_VERIFIED,
    InvalidEvents,
)
from .graph import WeightedDigraph

_COLUMNS = ("ts", "src", "dst", "cat", "src_followers", "dst_followers", "flags")
_DTYPES = (np.int64, np.int64, np.int64, np.int8, np.int64, np.int64, np.uint8)
_TABLE = ("ptr", "ts", "count")  # the FollowerSnapshots arrays, cached as follower_<name>.npy
_FILES = _COLUMNS + tuple(f"follower_{n}" for n in _TABLE)
_CACHE_FORMAT = 3  # 1 kept users.txt, one label per line, which broke on line-break labels; 2 had no follower table
_USERS_FILE = "users.json"
_CLASS_INDEX = {cls: i for i, cls in enumerate(CONTENT_CLASSES)}
CLASS_OF_CAT = np.array([_CLASS_INDEX[CLASS_BY_CATEGORY[tok]] for tok in CATEGORY_TOKENS], dtype=np.int8)


def file_sha256(path: str) -> str:
    h, buf = hashlib.sha256(), bytearray(1 << 20)  # one buffer, refilled: no fresh mapping per chunk
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(memoryview(buf)[:n])
    return h.hexdigest()


class _UserTable:
    """Label lookup over a `users` list, shared by the tables keyed by it."""

    users: list[str]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    def ids(self, labels: Iterable[str]) -> np.ndarray:
        """Index of each label in `users`, in input order; -1 for labels the table lacks."""
        index = self._index
        return np.array([index.get(u, -1) for u in labels], dtype=np.int64)

    @cached_property
    def label_rank(self) -> np.ndarray:
        """Each user's position in label order. Python's string order, not
        numpy's: a `U` array drops trailing NULs before comparing."""
        rank = np.empty(len(self.users), dtype=np.int64)
        rank[sorted(range(len(self.users)), key=self.users.__getitem__)] = np.arange(len(self.users))
        return rank


@dataclass
class EventColumns(_UserTable):
    users: list[str]
    ts: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    cat: np.ndarray
    src_followers: np.ndarray
    dst_followers: np.ndarray
    flags: np.ndarray
    follower_table: FollowerSnapshots | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def content_class_idx(self) -> np.ndarray:
        return CLASS_OF_CAT[self.cat]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_events(cls, chunks: Iterable[Sequence[Sequence]]) -> "EventColumns":
        """Columns from column chunks (users, ts, src, dst, category index,
        src_followers, dst_followers, flag bits), as `events.row_chunks` and
        the JSONL parse tiers make them: src and dst index the chunk's own
        `users`, which lists its labels in order of first appearance.

        Users are interned in first-appearance order, src before dst.
        """
        index: dict[str, int] = {}
        parts: list[list[np.ndarray]] = [[] for _ in _COLUMNS]
        for users, ts, src, dst, *rest in chunks:
            ids = np.array([index.setdefault(u, len(index)) for u in users], dtype=np.int64)
            for part, values, dtype in zip(parts, (ts, ids[src], ids[dst], *rest), _DTYPES):
                part.append(np.asarray(values, dtype=dtype))
        columns = []
        for part, dtype in zip(parts, _DTYPES):  # a column at a time, its parts freed once joined
            columns.append(np.concatenate(part) if part else np.zeros(0, dtype))
            part.clear()
        return cls(list(index), *columns)

    # -- persistence ----------------------------------------------------------

    def save(self, directory: str, source_hash: str) -> None:
        os.makedirs(directory, exist_ok=True)
        table = self.follower_logs()
        arrays = [(name, getattr(self, name)) for name in _COLUMNS] + [(f"follower_{n}", getattr(table, n)) for n in _TABLE]
        for name, values in arrays:  # written aside, then moved in: a mapped old file stays readable
            path = os.path.join(directory, f"{name}.npy")
            with open(path + ".tmp", "wb") as fh:
                np.save(fh, values)
            os.replace(path + ".tmp", path)
        with open(os.path.join(directory, _USERS_FILE), "w", encoding="utf-8") as fh:
            json.dump(self.users, fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, "users.txt"))  # the first format's user table
        meta = {"format": _CACHE_FORMAT, "n_events": len(self.ts), "n_users": len(self.users), "source_sha256": source_hash}
        with open(os.path.join(directory, "cache_meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, directory: str, expected_hash: str | None = None) -> "EventColumns | None":
        """The cached columns and follower table, or None (a miss) when the
        cache is absent, stale, of another format, unreadable, holds an array
        of the wrong dtype or shape, or disagrees with its meta counts. Every
        array is mapped read-only, so a stage pages in only what it reads, and
        kept as a plain ndarray view: indexing a view skips np.memmap's Python
        `__getitem__`. Only the table's `ptr` is read here."""
        try:
            with open(os.path.join(directory, "cache_meta.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("format") != _CACHE_FORMAT:
                return None
            if expected_hash is not None and meta.get("source_sha256") != expected_hash:
                return None
            with open(os.path.join(directory, _USERS_FILE), encoding="utf-8") as fh:
                users = json.load(fh)
            mapped = {n: np.load(os.path.join(directory, f"{n}.npy"), mmap_mode="r").view(np.ndarray) for n in _FILES}
        except (OSError, ValueError):
            return None
        cols = {name: mapped[name] for name in _COLUMNS}
        ptr, ts, count = (mapped[f"follower_{n}"] for n in _TABLE)
        typed = [*zip(cols.values(), _DTYPES), (ptr, np.int64), (ts, np.int64), (count, np.int64)]
        if len(users) != meta.get("n_users") or any(a.dtype != dtype or a.ndim != 1 for a, dtype in typed):
            return None
        if any(len(c) != meta.get("n_events") for c in cols.values()):
            return None
        offsets_ok = len(ptr) == len(users) + 1 and ptr[0] == 0 and np.all(ptr[1:] >= ptr[:-1])
        if not (offsets_ok and ptr[-1] == len(ts) == len(count)):
            return None
        return cls(users, **cols, follower_table=FollowerSnapshots(users, ptr, ts, count))

    # -- vectorized derivations ------------------------------------------------

    def event_mask(self, time_range: tuple[int, int] | None = None, content_class: str | None = None) -> np.ndarray:
        mask = np.ones(len(self.ts), dtype=bool)
        if time_range is not None:
            mask &= (self.ts >= time_range[0]) & (self.ts < time_range[1])
        if content_class is not None:
            mask &= self.content_class_idx == _CLASS_INDEX[content_class]
        return mask

    @cached_property
    def _class_time_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Stable order of the events by (class, ts) and the offset of each class's run."""
        cls_idx = self.content_class_idx
        offsets = np.zeros(len(CONTENT_CLASSES) + 1, dtype=np.int64)
        np.cumsum(np.bincount(cls_idx, minlength=len(CONTENT_CLASSES)), out=offsets[1:])
        return np.lexsort((self.ts, cls_idx)), offsets

    def class_time_rows(self, content_class: str, start: int, end: int) -> np.ndarray:
        """Rows of the class's events with start <= ts < end, ascending in ts:
        the rows `event_mask((start, end), content_class)` selects. Found by
        bisecting the class's run through `ts`, so no ts copy in that order is kept."""
        order, offsets = self._class_time_order
        c = _CLASS_INDEX[content_class]
        lo, hi = (bisect.bisect_left(order, t, offsets[c], offsets[c + 1], key=self.ts.__getitem__) for t in (start, end))
        return order[lo:hi]

    def build_graph(self, rows: np.ndarray | None = None) -> WeightedDigraph:
        """Aggregate the given rows (a mask or indices; all events when None)
        into a graph, one edge per (src, dst) pair, whatever the row order.
        Edge weights sum to the number of rows; nodes are their endpoints."""
        n_users = len(self.users)
        pair = self.src * n_users if rows is None else self.src[rows] * n_users
        pair += self.dst if rows is None else self.dst[rows]
        # Sort and diff: NumPy 2.x answers a plain np.unique through a hash
        # table, tens of times slower than a sort on a million int64 codes.
        pair.sort()  # in place, and run starts marked in bytes: one row-long int64 array at a time
        starts = np.flatnonzero(np.r_[len(pair) > 0, pair[1:] != pair[:-1]])  # row 0 starts a run, if any
        u_src, u_dst = np.divmod(pair[starts], n_users)
        counts = np.diff(starts, append=len(pair))
        is_node = np.zeros(n_users, dtype=bool)
        is_node[u_src] = True
        is_node[u_dst] = True
        remap = np.cumsum(is_node) - 1
        return WeightedDigraph(self.users, remap[u_src], remap[u_dst], counts, np.flatnonzero(is_node))

    def follower_logs(self) -> FollowerSnapshots:
        """Every user's follower-count log from activity-moment snapshots: the
        cached table when the columns came from the cache, else built once."""
        if self.follower_table is None:
            self.follower_table = self._build_follower_table()
        return self.follower_table

    def _build_follower_table(self) -> FollowerSnapshots:
        # Rows in (user, ts, event, role) order, the retweetee observation of
        # an event first: a stable sort by ts, then by user of the observations
        # interleaved src, dst per event. Temporaries are freed once used, and
        # event and user indices are int32 while they fit.
        index = np.int32 if 2 * len(self.ts) + len(self.users) < 2**31 else np.int64
        by_time = np.argsort(self.ts, kind="stable").astype(index, copy=False)
        user = np.empty(2 * len(by_time), dtype=index)
        user[0::2], user[1::2] = self.src[by_time], self.dst[by_time]
        bounds = np.zeros(len(self.users) + 1, dtype=np.int64)  # each user's rows before the collapse
        np.cumsum(np.bincount(user, minlength=len(self.users)), out=bounds[1:])
        obs = np.argsort(user, kind="stable")  # 2 * (position in by_time) + role
        del user
        role = (obs & 1).astype(bool)  # True for the retweeter (dst)
        obs >>= 1
        event = by_time[obs]
        del obs, by_time
        # Keep the last record of each (user, ts) run.
        ts = self.ts[event]
        keep = np.ones(len(ts), dtype=bool)
        keep[:-1] = ts[1:] != ts[:-1]
        keep[bounds[1:] - 1] = True  # every interned user has rows, so each bound ends a run
        del ts
        kept = np.flatnonzero(keep)
        ptr = np.searchsorted(kept, bounds)  # kept rows before each bound
        event, role = event[kept], role[kept]
        del kept, keep
        count = self.src_followers[event]
        for lo in range(0, len(event), 1 << 16):  # retweeter counts a block at a time: no table-long temporary
            block = slice(lo, lo + (1 << 16))
            np.copyto(count[block], self.dst_followers[event[block]], where=role[block])
        del role
        ts = self.ts[event]
        return FollowerSnapshots(self.users, ptr, ts, count)

    def flag_rates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n_observations, bot_rate, verification_rate), aligned with `users`.

        A user's records count both roles; every interned user takes part in
        some event, so no count is 0.
        """
        n_users = len(self.users)
        total = np.bincount(self.src, minlength=n_users) + np.bincount(self.dst, minlength=n_users)
        bots, vers = (  # integer counts per role: no 2N-row concatenation, no float weights
            np.bincount(self.src[(self.flags & src_bit) > 0], minlength=n_users)
            + np.bincount(self.dst[(self.flags & dst_bit) > 0], minlength=n_users)
            for src_bit, dst_bit in ((SRC_BOT, DST_BOT), (SRC_VERIFIED, DST_VERIFIED))
        )
        return total, bots / total, vers / total

    def daily_counts_by_class(self, aligned_class: np.ndarray) -> dict[str, dict[int, int]]:
        """Per-class per-day counts of events touching that class's aligned
        users; `aligned_class` holds each user's class index, -1 for none."""
        from .growth import SECONDS_PER_DAY

        cls_idx = self.content_class_idx
        out: dict[str, dict[int, int]] = {}
        for c, cls in enumerate(CONTENT_CLASSES):
            member = aligned_class == c
            mask = (cls_idx == c) & (member[self.src] | member[self.dst])
            days, counts = np.unique(self.ts[mask] // SECONDS_PER_DAY, return_counts=True)
            out[cls] = {int(d): int(c) for d, c in zip(days, counts)}
        return out


@dataclass(eq=False)
class FollowerSnapshots(_UserTable):
    """Every user's follower-count log as one flat table.

    User i (an index into `users`) owns rows ptr[i]:ptr[i + 1] of `ts` and
    `count`, strictly increasing in ts: simultaneous observations collapse
    to the last one in stream order.
    """

    users: list[str]
    ptr: np.ndarray
    ts: np.ndarray
    count: np.ndarray

    def first_at_or_after(self, ids: np.ndarray, t: int) -> np.ndarray:
        """Row of each user's first observation at or after t; its segment end when none.

        One bisection per user inside their rows ptr[i]:ptr[i + 1], run for
        all users at once: each step halves every open segment.
        """
        lo, hi = self.ptr[ids], self.ptr[ids + 1]
        last = len(self.ts) - 1
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) // 2
            below = self.ts[np.minimum(mid, last)] < t
            lo = np.where(below & (lo < hi), mid + 1, lo)
            hi = np.where(below, hi, mid)
        return lo

    def at(self, ids: np.ndarray, before: int) -> tuple[np.ndarray, np.ndarray]:
        """Each user's most recent count strictly before `before`, and a fallback mask.

        A user with no earlier observation gets their earliest count, one
        with no observation at all (or id -1) gets 0; both are flagged.
        """
        counts = np.zeros(len(ids), dtype=np.int64)
        fallback = np.ones(len(ids), dtype=bool)
        sel = np.flatnonzero((ids >= 0) & (self.ptr[ids + 1] > self.ptr[ids]))
        first = self.ptr[ids[sel]]
        pos = self.first_at_or_after(ids[sel], before)
        prior = pos > first
        counts[sel] = self.count[np.where(prior, pos - 1, first)]
        fallback[sel] = ~prior
        return counts, fallback


def load_or_parse(events_path: str, cache_dir: str | None = None, digest: str | None = None) -> EventColumns:
    """Load the cache when fresh, else parse the canonical stream strictly
    and write the parsed columns back to the cache. `digest` is the file's
    SHA-256 when the caller already took it."""
    digest = digest or file_sha256(events_path)
    if cache_dir is not None:
        cached = EventColumns.load(cache_dir, digest)
        if cached is not None:
            return cached
    from .events import parse_events

    with open(events_path, encoding="utf-8") as fh:
        columns, errors = parse_events(fh)
    if errors:
        first = errors[0]
        raise InvalidEvents(f"{events_path}: {len(errors)} invalid lines (first: line {first.line_no}: {first.message})")
    if cache_dir is not None:
        columns.save(cache_dir, digest)
    return columns
