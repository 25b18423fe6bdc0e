"""Synthetic retweet streams with planted structure, for desk-scale runs.

The generator plants three recoverable signals: per-group content alignment
(each aligned user's involvement concentrates on its class at a configured
purity), per-window follower growth rates (aligned follower counts follow a
piecewise-exponential curve whose 30-day window ratios equal the planted
rates), and per-segment swayable reach (class events touch a nested prefix
of the swayable pool, so follower mass reachable per class is ordered by
the planted reach). Edge weights come out heavy-tailed: a few aligned hubs
dominate volume and each spreads mostly to a handful of favourite partners.

Everything is drawn from addressable streams, so output is byte-identical
for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from . import rng as rngmod
from .events import CATEGORY_INDEX, CONTENT_CLASSES, DST_BOT, DST_VERIFIED, SRC_BOT, SRC_VERIFIED, write_events_jsonl
from .growth import STEP_SECONDS, WINDOW_SECONDS
from .store import EventColumns

# Event composition shares; spread = aligned user touching the swayable pool.
_SPREAD_SHARE = {"factual": 0.85, "misleading": 0.85, "uncertain": 0.70}
_INTRA_SHARE = 0.15  # aligned-to-aligned, own class
_FAVOURITES_PER_USER = 3
_FAVOURITE_PROB = 0.70
_ALIGNED_SRC_PROB = 0.80
_ZIPF_EXPONENT = 1.1
_MIX_ZONE = 50  # low swayable ranks shared by favourites and mixing events


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic dataset; see `validate` for the consistency rules."""

    start: int
    end: int
    aligned_users: dict[str, int]
    swayable_users: int
    events_per_class: dict[str, int]
    purity: float = 0.98
    follower_mu: float = 5.0
    follower_sigma: float = 1.2
    planted_rates: dict[str, tuple[float, ...]] | None = None
    swayable_reach: dict[str, tuple[float, ...]] | None = None
    bot_rate: float = 0.05
    verified_rate: float = 0.10

    @property
    def n_segments(self) -> int:
        return math.ceil((self.end - self.start) / STEP_SECONDS)

    @property
    def n_windows(self) -> int:
        span = self.end - self.start
        if span < WINDOW_SECONDS:
            return 0
        return (span - WINDOW_SECONDS) // STEP_SECONDS + 1

    def validate(self) -> None:
        if self.end - self.start < WINDOW_SECONDS:
            raise ValueError("time range must span at least one 30-day window")
        for table, name in ((self.aligned_users, "aligned_users"), (self.events_per_class, "events_per_class")):
            unknown = set(table) - set(CONTENT_CLASSES)
            if unknown:
                raise ValueError(f"{name} has unknown classes: {sorted(unknown)}")
            if any(v < 0 for v in table.values()):
                raise ValueError(f"{name} values must be non-negative")
        if self.swayable_users < 0:
            raise ValueError("swayable_users must be non-negative")
        for cls in CONTENT_CLASSES:
            users = self.aligned_users.get(cls, 0)
            volume = self.events_per_class.get(cls, 0)
            if users > 0 and volume == 0:
                raise ValueError(f"{cls}: planted users but zero event volume")
            if volume > 0 and users == 0 and self.swayable_users < 2:
                raise ValueError(f"{cls}: event volume but no users to involve")
        total_events = sum(self.events_per_class.values())
        if total_events > 0 and any(self.aligned_users.get(c, 0) for c in CONTENT_CLASSES) and self.swayable_users < 2:
            raise ValueError("aligned spreading requires at least 2 swayable users")
        if not (1.0 / 3.0 < self.purity <= 1.0):
            raise ValueError(f"purity must be in (1/3, 1], got {self.purity}")
        if self.follower_sigma < 0:
            raise ValueError("follower_sigma must be non-negative")
        for name, table, expect in (
            ("planted_rates", self.planted_rates, self.n_windows),
            ("swayable_reach", self.swayable_reach, self.n_segments),
        ):
            if table is None:
                continue
            for cls, values in table.items():
                if cls not in CONTENT_CLASSES:
                    raise ValueError(f"{name} has unknown class {cls!r}")
                if len(values) != expect:
                    raise ValueError(f"{name}[{cls}] needs {expect} values, got {len(values)}")
            if name == "planted_rates" and any(r <= -1.0 for vs in table.values() for r in vs):
                raise ValueError("planted rates must be > -1")
            if name == "swayable_reach" and any(not (0.0 < r <= 1.0) for vs in table.values() for r in vs):
                raise ValueError("swayable reach values must be in (0, 1]")
        for rate, name in ((self.bot_rate, "bot_rate"), (self.verified_rate, "verified_rate")):
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")


def _allocate(total: int, weights: Sequence[float]) -> np.ndarray:
    """Split `total` proportionally to weights, exact by largest remainder."""
    w = np.asarray(weights, dtype=np.float64)
    if total == 0 or w.sum() == 0:
        return np.zeros(len(w), dtype=np.int64)
    quota = total * w / w.sum()
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.lexsort((np.arange(len(w)), -(quota - base)))
        base[order[:short]] += 1
    return base


def _zipf_cdf(n: int) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** (-_ZIPF_EXPONENT)
    return np.cumsum(w) / w.sum()


def _growth_knots(rates: Sequence[float], n_segments: int) -> np.ndarray:
    """Log follower multipliers at segment boundaries.

    Window w spans knots [w, w+2], so g[w+2] = g[w] * (1 + rate_w) plants
    the 30-day ratio exactly; the tail beyond the last full window extends
    with the final rate.
    """
    g = np.ones(n_segments + 1, dtype=np.float64)
    for k in range(2, n_segments + 1):
        rate = rates[min(k - 2, len(rates) - 1)] if len(rates) else 0.0
        g[k] = g[k - 2] * (1.0 + rate)
    return np.log(g)


@dataclass
class SynthResult:
    """Columnar synthetic dataset plus the planted ground truth."""

    config: SynthConfig
    seed: int
    user_labels: list[str]
    ts: np.ndarray
    src: np.ndarray  # global user indices
    dst: np.ndarray
    cat: np.ndarray  # index into CATEGORY tokens used (one per class)
    src_followers: np.ndarray
    dst_followers: np.ndarray
    bot_flag: np.ndarray  # per-user static flags
    verified_flag: np.ndarray
    aligned_index: dict[str, tuple[int, int]]  # class -> [lo, hi) of user indices
    planted_rates: dict[str, tuple[float, ...]]
    reach: dict[str, tuple[float, ...]]

    _CAT_OF_CLASS = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "OTHER"}

    def __len__(self) -> int:
        return len(self.ts)

    def columns(self) -> EventColumns:
        """The events as EventColumns, equal to a parse of `write_jsonl`'s output:
        users that take part, interned in first-appearance order, src before dst."""
        n = len(self.ts)
        first = np.full(len(self.user_labels), 2 * n, dtype=np.int64)
        np.minimum.at(first, self.src, np.arange(0, 2 * n, 2))
        np.minimum.at(first, self.dst, np.arange(1, 2 * n, 2))
        seen = np.flatnonzero(first < 2 * n)
        order = seen[np.argsort(first[seen])]
        new_id = np.zeros(len(self.user_labels), dtype=np.int64)
        new_id[order] = np.arange(len(order))
        cat_of_class = np.array([CATEGORY_INDEX[self._CAT_OF_CLASS[c]] for c in CONTENT_CLASSES], dtype=np.int8)
        flags = np.zeros(n, dtype=np.uint8)
        for per_user, users, bit in (
            (self.bot_flag, self.src, SRC_BOT),
            (self.bot_flag, self.dst, DST_BOT),
            (self.verified_flag, self.src, SRC_VERIFIED),
            (self.verified_flag, self.dst, DST_VERIFIED),
        ):
            flags[per_user[users]] |= bit
        return EventColumns(
            users=[self.user_labels[i] for i in order],
            ts=self.ts,
            src=new_id[self.src],
            dst=new_id[self.dst],
            cat=cat_of_class[self.cat],
            src_followers=self.src_followers,
            dst_followers=self.dst_followers,
            flags=flags,
        )

    def write_jsonl(self, handle: TextIO) -> int:
        return write_events_jsonl(self.columns(), handle)

    def truth(self) -> dict:
        return {
            "seed": self.seed,
            "n_events": len(self.ts),
            "purity": self.config.purity,
            "aligned": {
                cls: [self.user_labels[i] for i in range(lo, hi)]
                for cls, (lo, hi) in self.aligned_index.items()
            },
            "n_swayable": self.config.swayable_users,
            "planted_rates": {c: list(v) for c, v in self.planted_rates.items()},
            "swayable_reach": {c: list(v) for c, v in self.reach.items()},
            "time_range": [self.config.start, self.config.end],
        }


def synthesize(config: SynthConfig, seed: int) -> SynthResult:
    """Generate the configured dataset; deterministic for a fixed seed."""
    config.validate()
    n_seg = config.n_segments
    seg_edges = [config.start + s * STEP_SECONDS for s in range(n_seg)] + [config.end]
    seg_lengths = [seg_edges[s + 1] - seg_edges[s] for s in range(n_seg)]

    # User table: aligned groups first (class order), swayable after.
    user_labels: list[str] = []
    aligned_index: dict[str, tuple[int, int]] = {}
    prefix = {"factual": "fac", "misleading": "mis", "uncertain": "unc"}
    for cls in CONTENT_CLASSES:
        lo = len(user_labels)
        user_labels.extend(f"{prefix[cls]}{i:06d}" for i in range(config.aligned_users.get(cls, 0)))
        aligned_index[cls] = (lo, len(user_labels))
    sw_base = len(user_labels)
    user_labels.extend(f"sw{i:06d}" for i in range(config.swayable_users))
    n_users = len(user_labels)

    gen_users = rngmod.stream(seed, "users")
    f0 = np.maximum(1, np.rint(gen_users.lognormal(config.follower_mu, config.follower_sigma, n_users))).astype(np.int64)
    gen_flags = rngmod.stream(seed, "flags")
    bot_flag = gen_flags.random(n_users) < config.bot_rate
    verified_flag = gen_flags.random(n_users) < config.verified_rate

    rates = {
        cls: tuple((config.planted_rates or {}).get(cls, (0.05,) * config.n_windows))
        for cls in CONTENT_CLASSES
    }
    reach = {
        cls: tuple((config.swayable_reach or {}).get(cls, (1.0,) * n_seg))
        for cls in CONTENT_CLASSES
    }
    log_knots = {cls: _growth_knots(rates[cls], n_seg) for cls in CONTENT_CLASSES}

    zipf = {
        cls: _zipf_cdf(config.aligned_users.get(cls, 0))
        for cls in CONTENT_CLASSES
        if config.aligned_users.get(cls, 0) > 0
    }
    fav_zone = min(max(_MIX_ZONE, 1), config.swayable_users) if config.swayable_users else 0
    n_aligned_total = sw_base
    if n_aligned_total and fav_zone:
        gen_fav = rngmod.stream(seed, "favourites")
        favourites = gen_fav.integers(0, fav_zone, size=(n_aligned_total, _FAVOURITES_PER_USER))
    else:
        favourites = np.zeros((max(n_aligned_total, 1), _FAVOURITES_PER_USER), dtype=np.int64)

    cols_ts, cols_src, cols_dst = [], [], []

    for cls in CONTENT_CLASSES:
        volume = config.events_per_class.get(cls, 0)
        if volume == 0:
            continue
        a_cls = config.aligned_users.get(cls, 0)
        spread_share = _SPREAD_SHARE[cls] if a_cls else 0.0
        intra_share = _INTRA_SHARE if a_cls else 0.0
        mix_share = max(0.0, 1.0 - spread_share - intra_share)
        # Own-class pick probability reproducing the configured purity in
        # expectation: involvement = spread picks + both intra endpoints.
        total_w = spread_share + 2 * intra_share
        q_own = 1.0 if spread_share == 0 else min(1.0, max(0.0, (total_w * config.purity - 2 * intra_share) / spread_share))
        other_classes = [c for c in CONTENT_CLASSES if c != cls and config.aligned_users.get(c, 0) > 0]
        if not other_classes:
            q_own = 1.0

        seg_counts = _allocate(volume, seg_lengths)
        for s in range(n_seg):
            n_ev = int(seg_counts[s])
            if n_ev == 0:
                continue
            gen = rngmod.stream(seed, "events", cls, s)
            n_spread, n_intra, n_mix = _allocate(n_ev, [spread_share, intra_share, mix_share])
            pool = max(1, int(round(reach[cls][s] * config.swayable_users))) if config.swayable_users else 0

            if n_spread:
                # Aligned participant: own class w.p. q_own, else another group.
                u = gen.random(n_spread)
                group = np.full(n_spread, cls, dtype=object)
                cross = u >= q_own
                if cross.any():
                    pick = gen.integers(0, len(other_classes), size=int(cross.sum()))
                    group[cross] = np.array(other_classes, dtype=object)[pick]
                member = np.empty(n_spread, dtype=np.int64)
                for g_cls in CONTENT_CLASSES:  # fixed order keeps draws deterministic
                    sel = group == g_cls
                    if not sel.any():
                        continue
                    ranks = np.searchsorted(zipf[g_cls], gen.random(int(sel.sum())))
                    member[sel] = aligned_index[g_cls][0] + ranks
                # Partner: favourite ranks w.p. _FAVOURITE_PROB (when inside
                # the segment pool), else uniform over the pool prefix.
                uniform_rank = gen.integers(0, pool, size=n_spread)
                fav_slot = gen.integers(0, _FAVOURITES_PER_USER, size=n_spread)
                fav_rank = favourites[member, fav_slot]
                use_fav = (gen.random(n_spread) < _FAVOURITE_PROB) & (fav_rank < pool)
                partner = sw_base + np.where(use_fav, fav_rank, uniform_rank)
                aligned_src = gen.random(n_spread) < _ALIGNED_SRC_PROB
                cols_src.append(np.where(aligned_src, member, partner))
                cols_dst.append(np.where(aligned_src, partner, member))
                cols_ts.append(gen.integers(seg_edges[s], seg_edges[s + 1], size=n_spread))

            if n_intra:
                lo = aligned_index[cls][0]
                src_r = np.searchsorted(zipf[cls], gen.random(n_intra))
                dst_r = np.searchsorted(zipf[cls], gen.random(n_intra))
                same = (src_r == dst_r) & (a_cls > 1)
                dst_r[same] = (dst_r[same] + 1) % a_cls
                cols_src.append(lo + src_r)
                cols_dst.append(lo + dst_r)
                cols_ts.append(gen.integers(seg_edges[s], seg_edges[s + 1], size=n_intra))

            if n_mix:
                zone = max(2, min(fav_zone, config.swayable_users))
                src_r = gen.integers(0, zone, size=n_mix)
                dst_r = gen.integers(0, zone, size=n_mix)
                same = src_r == dst_r
                dst_r[same] = (dst_r[same] + 1) % zone
                cols_src.append(sw_base + src_r)
                cols_dst.append(sw_base + dst_r)
                cols_ts.append(gen.integers(seg_edges[s], seg_edges[s + 1], size=n_mix))

    if cols_ts:
        ts = _concat_ordered(cols_ts)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        src, dst = (_concat_ordered(parts, order) for parts in (cols_src, cols_dst))
        # Each class is generated in CONTENT_CLASSES order to exactly its volume.
        volumes = [config.events_per_class.get(cls, 0) for cls in CONTENT_CLASSES]
        cat = np.repeat(np.arange(len(CONTENT_CLASSES), dtype=np.int8), volumes)[order]
    else:
        ts = np.zeros(0, dtype=np.int64)
        src = dst = np.zeros(0, dtype=np.int64)
        cat = np.zeros(0, dtype=np.int8)

    src_followers = _follower_counts(config, src, ts, f0, aligned_index, log_knots, seg_edges)
    dst_followers = _follower_counts(config, dst, ts, f0, aligned_index, log_knots, seg_edges)

    return SynthResult(
        config=config,
        seed=seed,
        user_labels=user_labels,
        ts=ts,
        src=src,
        dst=dst,
        cat=cat,
        src_followers=src_followers,
        dst_followers=dst_followers,
        bot_flag=bot_flag,
        verified_flag=verified_flag,
        aligned_index=aligned_index,
        planted_rates=rates,
        reach=reach,
    )


def _concat_ordered(parts: list[np.ndarray], order: np.ndarray | None = None) -> np.ndarray:
    """The parts joined, then reordered; the list is emptied so each part is freed once joined."""
    column = np.concatenate(parts)
    parts.clear()
    return column if order is None else column[order]


def _follower_counts(
    config: SynthConfig,
    users: np.ndarray,
    ts: np.ndarray,
    f0: np.ndarray,
    aligned_index: dict[str, tuple[int, int]],
    log_knots: dict[str, np.ndarray],
    seg_edges: list[int],
) -> np.ndarray:
    """Follower snapshot per event endpoint; aligned users follow their
    class growth curve (log-linear between segment knots), swayable users
    stay at their baseline."""
    counts = f0[users]
    edges = np.asarray(seg_edges, dtype=np.int64)
    for cls, (lo, hi) in aligned_index.items():
        rows = np.flatnonzero((users >= lo) & (users < hi))
        if not len(rows):
            continue
        t = ts[rows]  # segment and fraction only on the class's aligned rows
        seg = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
        frac = (t - edges[seg]) / (edges[seg + 1] - edges[seg])
        lk = log_knots[cls]
        counts[rows] = np.rint(counts[rows] * np.exp(lk[seg] + frac * (lk[seg + 1] - lk[seg])))
    return counts
