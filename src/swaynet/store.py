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
import io
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .events import (
    CATEGORY_TOKENS,
    CLASS_BY_CATEGORY,
    CONTENT_CLASSES,
    DST_BOT,
    DST_VERIFIED,
    SRC_BOT,
    SRC_VERIFIED,
    ByteChunks,
    InvalidEvents,
    NotUTF8,
)
from .graph import WeightedDigraph

_COLUMNS = ("ts", "src", "dst", "cat", "src_followers", "dst_followers", "flags")
_TABLE = ("ptr", "ts", "count")  # the FollowerSnapshots arrays, cached as follower_<name>.npy
_FILES = _COLUMNS + tuple(f"follower_{n}" for n in _TABLE)
# The dtypes each cache file may hold: ids and counts take the width that
# `id_dtype` and `count_dtype` give them, every other array has one.
_NARROWED = ("src", "dst", "src_followers", "dst_followers", "follower_count")
_WIDTHS = {n: ("int32", "int64") if n in _NARROWED else ("int64",) for n in _FILES} | {"cat": ("int8",), "flags": ("uint8",)}
# 1 kept users.txt, one label per line, which broke on line-break labels; 2 had
# no follower table; 3 held ids and counts as int64 and recorded no dtypes.
_CACHE_FORMAT = 4
_USERS_FILE = "users.json"
_CLASS_INDEX = {cls: i for i, cls in enumerate(CONTENT_CLASSES)}
CLASS_OF_CAT = np.array([_CLASS_INDEX[CLASS_BY_CATEGORY[tok]] for tok in CATEGORY_TOKENS], dtype=np.int8)
_FOLLOWER_BLOCKS = 16  # id-contiguous user blocks the follower table is built in, about 1/16 of the observations each
_KEY_BITS = 63  # a block's sort keys are non-negative int64


def id_dtype(n_users: int) -> np.dtype:
    """The dtype of user ids among `n_users` users: int32 below 2^31 users, else int64."""
    return np.dtype(np.int32 if n_users < 2**31 else np.int64)


def count_dtype(*counts: np.ndarray) -> np.dtype:
    """The dtype of follower counts: int32 when every value of every array
    in `counts` fits it, else int64 for all of them."""
    low, high = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    fits = all(len(c) == 0 or (low <= c.min() and c.max() <= high) for c in counts)
    return np.dtype(np.int32 if fits else np.int64)


def file_sha256(path: str) -> str:
    h, buf = hashlib.sha256(), bytearray(1 << 20)  # one buffer, refilled: no fresh mapping per chunk
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(memoryview(buf)[:n])
    return h.hexdigest()


class Sha256Writer:
    """A text sink that writes UTF-8 bytes to a binary file and feeds the
    same bytes to one SHA-256, so a file is hashed as it is written."""

    def __init__(self, handle: BinaryIO):
        self.handle, self.sha256 = handle, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha256.update(data)
        return self.handle.write(data)

    def hexdigest(self) -> str:
        return self.sha256.hexdigest()


@contextlib.contextmanager
def _replacing(path: str, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """A file (`open`'s mode and keywords) written beside `path` and moved onto
    it once closed, so a reader, or a map of the old file, never sees a partial
    one; a write that fails removes it and leaves `path` as it was."""
    try:
        with open(path + ".tmp", mode, **kwargs) as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + ".tmp")
        raise
    os.replace(path + ".tmp", path)


def _npy_header(dtype: np.dtype, length: int) -> bytes:
    """The header `np.save` writes for a 1-D array of `dtype` and `length`."""
    header = io.BytesIO()
    descr = np.lib.format.dtype_to_descr(np.dtype(dtype))
    np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": False, "shape": (length,)})
    return header.getvalue()


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
    def label_order(self) -> np.ndarray:
        """User ids in label order: Python's string order, not numpy's, as a
        `U` array drops trailing NULs before comparing."""
        return np.array(sorted(range(len(self.users)), key=self.users.__getitem__), dtype=np.int64)

    @cached_property
    def label_rank(self) -> np.ndarray:
        """Each user's position in label order."""
        rank = np.empty(len(self.users), dtype=np.int64)
        rank[self.label_order] = np.arange(len(self.users))
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

        Users are interned in first-appearance order, src before dst. Ids
        and counts take the width `id_dtype` and `count_dtype` give the whole
        stream; each chunk's part is already that narrow unless some later
        chunk widens the column, so the parts join straight into it.
        """
        index: dict[str, int] = {}
        parts: list[list[np.ndarray]] = [[] for _ in _COLUMNS]
        for users, ts, src, dst, cat, src_f, dst_f, flags in chunks:
            ids = [index.setdefault(u, len(index)) for u in users]
            ids = np.array(ids, dtype=id_dtype(len(index)))
            src_f, dst_f = np.asarray(src_f, dtype=np.int64), np.asarray(dst_f, dtype=np.int64)
            counts = count_dtype(src_f, dst_f)
            src_f, dst_f = src_f.astype(counts, copy=False), dst_f.astype(counts, copy=False)
            chunk = (np.asarray(ts, dtype=np.int64), ids[src], ids[dst], np.asarray(cat, dtype=np.int8), src_f, dst_f)
            for part, values in zip(parts, (*chunk, np.asarray(flags, dtype=np.uint8))):
                part.append(values)
            del ids, src_f, dst_f, chunk  # no wide copy outlives its chunk
        ids = id_dtype(len(index))
        counts = np.dtype(np.int64 if any(p.dtype == np.int64 for p in (*parts[4], *parts[5])) else np.int32)
        columns = []
        for part, dtype in zip(parts, (np.int64, ids, ids, np.int8, counts, counts, np.uint8)):
            columns.append(np.concatenate(part, dtype=dtype) if part else np.zeros(0, dtype))
            part.clear()  # a column at a time, its parts freed once joined
        return cls(list(index), *columns)

    # -- persistence ----------------------------------------------------------

    def save(self, directory: str, source_hash: str) -> None:
        """Write the columns, follower table and user table into the cache
        at `directory` and map them back: on return every column and table
        array is a read-only map of its cache file, as `load` gives it, and
        the arrays held before are released. Each column is mapped once
        written, and the table is built from the mapped columns and streamed
        into its files a block of users at a time, never joined."""
        os.makedirs(directory, exist_ok=True)
        for name in _COLUMNS:
            path = os.path.join(directory, f"{name}.npy")
            with _replacing(path) as fh:
                np.save(fh, getattr(self, name))
            setattr(self, name, np.load(path, mmap_mode="r").view(np.ndarray))
        self._stream_follower_table(directory)
        with _replacing(os.path.join(directory, _USERS_FILE), "w", encoding="utf-8") as fh:
            json.dump(self.users, fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, "users.txt"))  # the first format's user table
        dtypes = {name: getattr(self, name).dtype.name for name in _COLUMNS}
        dtypes |= {"follower_ptr": "int64", "follower_ts": "int64", "follower_count": self._count_type.name}
        meta = {
            "dtypes": dtypes,
            "format": _CACHE_FORMAT,
            "n_events": len(self.ts),
            "n_users": len(self.users),
            "source_sha256": source_hash,
        }
        with _replacing(os.path.join(directory, "cache_meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)
        mapped = self._mapped(directory, meta, self.users)
        if mapped is None:
            raise OSError(f"{directory}: the cache just written does not read back")
        for name in _COLUMNS:
            setattr(self, name, getattr(mapped, name))
        self.follower_table = mapped.follower_table

    def _stream_follower_table(self, directory: str) -> None:
        """follower_*.npy with np.save's bytes, each block of `_follower_blocks`
        written from its own buffer; the ts and count headers, whose size does
        not depend on the length, are rewritten once the length is known."""
        dtypes, rows = (np.dtype(np.int64), self._count_type), 0
        ends, placeholders = [np.zeros(1, dtype=np.int64)], [_npy_header(dtype, 0) for dtype in dtypes]
        with (
            _replacing(os.path.join(directory, "follower_ts.npy")) as ts_fh,
            _replacing(os.path.join(directory, "follower_count.npy")) as count_fh,
        ):
            ts_fh.write(placeholders[0])
            count_fh.write(placeholders[1])
            for block_ends, ts, count in self._follower_blocks():
                ends.append(block_ends)
                ts_fh.write(memoryview(ts))
                count_fh.write(memoryview(count))
                rows += len(ts)
                del ts, count
            for fh, dtype, placeholder in zip((ts_fh, count_fh), dtypes, placeholders):
                header = _npy_header(dtype, rows)
                if len(header) != len(placeholder):
                    raise ValueError(f"an .npy header for {rows} rows is not {len(placeholder)} bytes long")
                fh.seek(0)
                fh.write(header)
        with _replacing(os.path.join(directory, "follower_ptr.npy")) as fh:
            np.save(fh, np.concatenate(ends))

    @classmethod
    def load(cls, directory: str, expected_hash: str | None = None) -> "EventColumns | None":
        """The cached columns and follower table, or None (a miss) when the
        cache is absent, stale, of another format, unreadable, holds an array
        of another dtype than its meta records (or one that file may not take)
        or of the wrong shape, or disagrees with its meta counts. Every
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
        except (OSError, ValueError):
            return None
        return cls._mapped(directory, meta, users)

    @classmethod
    def _mapped(cls, directory: str, meta: dict, users: list[str]) -> "EventColumns | None":
        """The cache's column and table files mapped read-only, or None when
        one is unreadable or breaks a rule of `load`."""
        try:
            mapped = {n: np.load(os.path.join(directory, f"{n}.npy"), mmap_mode="r").view(np.ndarray) for n in _FILES}
        except (OSError, ValueError):
            return None
        dtypes = meta.get("dtypes")
        if not isinstance(dtypes, dict) or len(users) != meta.get("n_users"):
            return None
        if any(dtypes.get(n) not in _WIDTHS[n] or a.dtype != dtypes[n] or a.ndim != 1 for n, a in mapped.items()):
            return None
        cols = {name: mapped[name] for name in _COLUMNS}
        ptr, ts, count = (mapped[f"follower_{n}"] for n in _TABLE)
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
        # The pair codes reach n_users^2: widened to int64 as they are formed.
        pair = np.multiply(self.src if rows is None else self.src[rows], n_users, dtype=np.int64)
        pair += self.dst if rows is None else self.dst[rows]
        # Sort and diff: NumPy 2.x answers a plain np.unique through a hash
        # table, tens of times slower than a sort on a million int64 codes.
        pair.sort()  # in place, and run starts marked in bytes: one row-long int64 array at a time
        starts = np.flatnonzero(np.r_[len(pair) > 0, pair[1:] != pair[:-1]])  # row 0 starts a run, if any
        u_src, u_dst = np.divmod(pair[starts], n_users)
        counts = np.diff(starts, append=len(pair))
        del pair, starts  # the event-long codes go before the graph's own arrays are built
        is_node = np.zeros(n_users, dtype=bool)
        is_node[u_src] = True
        is_node[u_dst] = True
        remap = np.cumsum(is_node) - 1
        return WeightedDigraph(self.users, remap[u_src], remap[u_dst], counts, np.flatnonzero(is_node))

    def follower_logs(self) -> FollowerSnapshots:
        """Every user's follower-count log from activity-moment snapshots: the
        cached table when the columns came from the cache or were saved, else
        built once from `_follower_blocks` into arrays sized for every
        observation and shrunk in place to the rows kept."""
        if self.follower_table is None:
            ends, rows = [np.zeros(1, dtype=np.int64)], 0
            ts, count = np.empty(2 * len(self.ts), dtype=np.int64), np.empty(2 * len(self.ts), dtype=self._count_type)
            for block_ends, block_ts, block_count in self._follower_blocks():
                ends.append(block_ends)
                ts[rows : rows + len(block_ts)] = block_ts
                count[rows : rows + len(block_ts)] = block_count
                rows += len(block_ts)
                del block_ts, block_count
            ts.resize(rows, refcheck=False)  # no view of either array exists
            count.resize(rows, refcheck=False)
            self.follower_table = FollowerSnapshots(self.users, np.concatenate(ends), ts, count)
        return self.follower_table

    @property
    def _count_type(self) -> np.dtype:
        """The dtype of the follower table's counts: that of the count columns."""
        return np.result_type(self.src_followers, self.dst_followers)

    def _follower_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The follower table a block of users at a time: for each of
        `_FOLLOWER_BLOCKS` id-contiguous user blocks, in id order, the table
        row that ends each block user's segment (`ptr[lo + 1 : hi + 1]`) and
        the block's `ts` and `count` rows.

        Blocks hold about equal numbers of observations, two per event, and
        are selected by one compare per role against each event's block ids.
        A block's observations are put in (user, ts, event, role) order, the
        retweetee observation of an event first, by one sort of int64 keys
        packing the user's offset in the block, the event's rank in stable ts
        order and the role; the last observation of each (user, ts) run is
        kept. Only the ranks and block ids are event-long.
        """
        n, n_users = len(self.ts), len(self.users)
        rank = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
        by_time = np.argsort(self.ts, kind="stable")
        for lo in range(0, n, 1 << 16):  # no event-long arange beside the order
            rank[by_time[lo : lo + (1 << 16)]] = np.arange(lo, min(lo + (1 << 16), n), dtype=rank.dtype)
        del by_time
        observations = np.bincount(self.src, minlength=n_users) + np.bincount(self.dst, minlength=n_users)
        bounds = np.zeros(_FOLLOWER_BLOCKS + 1, dtype=np.int64)
        targets = np.arange(1, _FOLLOWER_BLOCKS) * (2 * n / _FOLLOWER_BLOCKS)
        bounds[1:-1] = np.searchsorted(np.cumsum(observations), targets, side="right")
        bounds[-1] = n_users
        block_of = np.repeat(np.arange(_FOLLOWER_BLOCKS, dtype=np.uint8), np.diff(bounds))
        src_block, dst_block = block_of[self.src], block_of[self.dst]
        del block_of
        rank_bits, end = max(n - 1, 0).bit_length(), 0
        for b, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            as_src, as_dst = np.flatnonzero(src_block == b), np.flatnonzero(dst_block == b)
            n_src, event = len(as_src), np.concatenate([as_src, as_dst])
            key = np.empty(len(event), dtype=np.int64)  # wider than the ids: the key packs rank and role bits beside them
            key[:n_src] = self.src[as_src]
            key[n_src:] = self.dst[as_dst]
            del as_src, as_dst
            key -= lo  # the user's offset in the block
            if (hi - lo - 1).bit_length() + rank_bits + 1 <= _KEY_BITS:
                key <<= rank_bits
                key |= rank[event]
                key <<= 1
                key[n_src:] |= 1
                order = np.argsort(key)
            else:
                order = np.lexsort((np.arange(len(key)) >= n_src, rank[event], key))
            del key
            event = event[order]
            is_dst = order >= n_src  # the retweeter observation
            del order
            # Keep the last row of each (user, ts) run; each user's rows end
            # at the running sum of its observation counts.
            ts = self.ts[event]
            user_ends = np.cumsum(observations[lo:hi])
            keep = np.ones(len(ts), dtype=bool)
            keep[:-1] = ts[1:] != ts[:-1]
            keep[user_ends[user_ends > 0] - 1] = True
            kept = np.flatnonzero(keep)
            del keep
            ends = end + np.searchsorted(kept, user_ends)
            ts = ts[kept]  # one array at a time, each freed as its copy replaces it
            event = event[kept]
            is_dst = is_dst[kept]
            del kept
            count = np.take(self.src_followers, event).astype(self._count_type, copy=False)
            np.copyto(count, np.take(self.dst_followers, event), where=is_dst)
            del event, is_dst
            end += len(ts)
            yield ends, ts, count
            del ts, count  # a block's rows live no longer than its sink needs them

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
        cls_idx = self.content_class_idx
        out: dict[str, dict[int, int]] = {}
        for c, cls in enumerate(CONTENT_CLASSES):
            member = aligned_class == c
            days, counts = day_counts(self.ts, (cls_idx == c) & (member[self.src] | member[self.dst]))
            out[cls] = dict(zip(days.tolist(), counts.tolist()))
        return out


def day_counts(ts: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct days of `ts[rows]` (all of `ts` when None), ascending, and
    the events of each: `np.unique(ts[rows] // SECONDS_PER_DAY, return_counts=True)`
    from one copy, divided and sorted in place; np.unique would copy it again."""
    from .growth import SECONDS_PER_DAY

    days = ts.copy() if rows is None else ts[rows]
    days //= SECONDS_PER_DAY
    days.sort()
    starts = np.flatnonzero(np.r_[len(days) > 0, days[1:] != days[:-1]])
    return days[starts], np.diff(starts, append=len(days))


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


def load_or_parse(events_path: str, cache_dir: str, digest: str) -> EventColumns:
    """Load the cache when fresh, else parse the canonical stream strictly
    and write the parsed columns back to the cache, which leaves them mapped
    from it. `digest` is the file's SHA-256 as the caller took it; the parse
    hashes the bytes it reads again and raises if they differ."""
    cached = EventColumns.load(cache_dir, digest)
    if cached is not None:
        return cached
    from .events import parse_events

    try:
        with open(events_path, "rb") as fh:
            columns, errors = parse_events(reader := ByteChunks(fh))
    except NotUTF8 as exc:
        raise InvalidEvents(f"{events_path}: {exc}") from None
    if reader.hexdigest() != digest:  # the bytes parsed are not the bytes hashed: never cache them under that digest
        raise RuntimeError(f"{events_path} changed while it was read; run the stage again")
    if errors:
        first = errors[0]
        raise InvalidEvents(f"{events_path}: {len(errors)} invalid lines (first: line {first.line_no}: {first.message})")
    columns.save(cache_dir, digest)
    return columns
