"""Object-path oracles: the event model swaynet used before EventColumns.

Each function here works on plain `RetweetEvent` lists, one event at a
time, or on per-user `FollowerLog` dicts, one user at a time, with no numpy.
The tests compare the columnar functions the CLI runs against these, and
build small hand-written inputs with `RetweetEvent` and `FollowerLog`;
`follower_table` turns such a dict into the flat table swaynet runs on.

The graph and diagnostic oracles work one edge or node side at a time:
`digraph_of` builds every test graph from (src, dst, weight) triples, and
the heterogeneity, significance, overlap and window-loss oracles are the
scalar forms the array code in swaynet is checked against.
`follower_table_by_lexsort` is the table builder that sorted all four
observation columns at once, and `acceptance_losses_by_axis_sum` the loss
expression that summed over the class axis.
The label-space section holds what the id code replaced: reachability
and cascade populations on label sets, the follower-table search by one
global key array, and the backbone mask by searchsorted, plus helpers that
turn label sets into the ids and masks swaynet takes.
`simulate_growth_rate` draws one cascade replicate at a time, the scalar
form of the sampler that fit and simulate share. The alignment
oracles at the end recount involvement one event at a time and classify
and bin one user at a time.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from swaynet.backbone import null_heterogeneity_moments
from swaynet.events import (
    CATEGORY_INDEX,
    CATEGORY_TOKENS,
    CLASS_BY_CATEGORY,
    CONTENT_CLASSES,
    DST_BOT,
    DST_VERIFIED,
    EVENT_FIELDS,
    SRC_BOT,
    SRC_VERIFIED,
    row_chunks,
)
from swaynet.graph import WeightedDigraph
from swaynet.growth import GrowthPoint, TimeWindow
from swaynet.sir import final_size, swayable_recovered_count
from swaynet.store import EventColumns, FollowerSnapshots

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True, slots=True)
class RetweetEvent:
    """One retweet: `retweetee` was retweeted by `retweeter` at `timestamp`.

    Follower counts and bot/verification flags are snapshots taken for both
    users at the moment of the activity.
    """

    timestamp: int
    retweetee: str
    retweeter: str
    raw_category: str
    content_class: str
    retweetee_followers: int
    retweeter_followers: int
    retweetee_bot: bool
    retweeter_bot: bool
    retweetee_verified: bool
    retweeter_verified: bool


@dataclass(frozen=True, slots=True)
class UserFlagRates:
    """Fraction of a user's activity records flagged bot / verified."""

    user: str
    bot_rate: float
    verification_rate: float
    n_observations: int


@dataclass(frozen=True, slots=True)
class FollowerLog:
    """Time-ordered follower-count observations for one user.

    Observations are strictly increasing in timestamp; simultaneous
    observations collapse to the last value seen in stream order.
    """

    user: str
    observations: tuple[tuple[int, int], ...]


# -- conversion between the two models -----------------------------------------


def columns_of(events: Iterable[RetweetEvent]) -> EventColumns:
    """EventColumns holding `events`, built by the production columns builder."""
    return EventColumns.from_events(
        row_chunks(
            (
                e.timestamp,
                e.retweetee,
                e.retweeter,
                CATEGORY_INDEX[e.raw_category],
                e.retweetee_followers,
                e.retweeter_followers,
                (SRC_BOT if e.retweetee_bot else 0)
                | (DST_BOT if e.retweeter_bot else 0)
                | (SRC_VERIFIED if e.retweetee_verified else 0)
                | (DST_VERIFIED if e.retweeter_verified else 0),
            )
            for e in events
        )
    )


def follower_table(logs: Mapping[str, FollowerLog]) -> FollowerSnapshots:
    """The flat follower table holding `logs`, users in dict order."""
    users = list(logs)
    obs = [o for log in logs.values() for o in log.observations]
    ptr = np.cumsum([0] + [len(log.observations) for log in logs.values()], dtype=np.int64)
    ts = np.array([t for t, _ in obs], dtype=np.int64)
    count = np.array([c for _, c in obs], dtype=np.int64)
    return FollowerSnapshots(users, ptr, ts, count)


def logs_of(table: FollowerSnapshots) -> dict[str, FollowerLog]:
    """Per-user logs read back off a flat table; users without rows are left out."""
    logs = {}
    for i, user in enumerate(table.users):
        lo, hi = int(table.ptr[i]), int(table.ptr[i + 1])
        if hi > lo:
            logs[user] = FollowerLog(user, tuple(zip(table.ts[lo:hi].tolist(), table.count[lo:hi].tolist())))
    return logs


def to_events(columns: EventColumns) -> list[RetweetEvent]:
    out = []
    users = columns.users
    for i in range(len(columns.ts)):
        tok = CATEGORY_TOKENS[columns.cat[i]]
        f = int(columns.flags[i])
        out.append(
            RetweetEvent(
                timestamp=int(columns.ts[i]),
                retweetee=users[columns.src[i]],
                retweeter=users[columns.dst[i]],
                raw_category=tok,
                content_class=CLASS_BY_CATEGORY[tok],
                retweetee_followers=int(columns.src_followers[i]),
                retweeter_followers=int(columns.dst_followers[i]),
                retweetee_bot=bool(f & SRC_BOT),
                retweeter_bot=bool(f & DST_BOT),
                retweetee_verified=bool(f & SRC_VERIFIED),
                retweeter_verified=bool(f & DST_VERIFIED),
            )
        )
    return out


def synth_events(result) -> list[RetweetEvent]:
    """A SynthResult's events read straight off its label table and per-user flags."""
    out = []
    for i in range(len(result.ts)):
        cls = CONTENT_CLASSES[result.cat[i]]
        s, d = int(result.src[i]), int(result.dst[i])
        out.append(
            RetweetEvent(
                timestamp=int(result.ts[i]),
                retweetee=result.user_labels[s],
                retweeter=result.user_labels[d],
                raw_category=result._CAT_OF_CLASS[cls],
                content_class=cls,
                retweetee_followers=int(result.src_followers[i]),
                retweeter_followers=int(result.dst_followers[i]),
                retweetee_bot=bool(result.bot_flag[s]),
                retweeter_bot=bool(result.bot_flag[d]),
                retweetee_verified=bool(result.verified_flag[s]),
                retweeter_verified=bool(result.verified_flag[d]),
            )
        )
    return out


def columns_equal(a: EventColumns, b: EventColumns) -> bool:
    """Same user table and the same values and dtypes in every column."""
    if a.users != b.users:
        return False
    for name in ("ts", "src", "dst", "cat", "src_followers", "dst_followers", "flags"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    return True


def write_events_csv(events: Iterable[RetweetEvent], handle: TextIO) -> int:
    writer = csv.writer(handle)
    writer.writerow(EVENT_FIELDS)
    n = 0
    for e in events:
        writer.writerow(
            [
                e.timestamp,
                e.retweetee,
                e.retweeter,
                e.raw_category,
                e.retweetee_followers,
                e.retweeter_followers,
                e.retweetee_bot,
                e.retweeter_bot,
                e.retweetee_verified,
                e.retweeter_verified,
            ]
        )
        n += 1
    return n


# -- derivations, one event at a time --------------------------------------------


def build_network(
    events: Iterable[RetweetEvent],
    time_range: tuple[int, int] | None = None,
    class_filter: str | None = None,
) -> WeightedDigraph:
    """Aggregate events into a weighted digraph, one edge per (src, dst) pair."""
    weights: dict[tuple[str, str], int] = {}
    labels: list[str] = []
    index: dict[str, int] = {}
    for e in events:
        if time_range is not None and not (time_range[0] <= e.timestamp < time_range[1]):
            continue
        if class_filter is not None and e.content_class != class_filter:
            continue
        key = (e.retweetee, e.retweeter)
        if key in weights:
            weights[key] += 1
        else:
            weights[key] = 1
            for u in key:
                if u not in index:
                    index[u] = len(labels)
                    labels.append(u)
    n_e = len(weights)
    src = np.fromiter((index[s] for s, _ in weights), dtype=np.int64, count=n_e)
    dst = np.fromiter((index[d] for _, d in weights), dtype=np.int64, count=n_e)
    w = np.fromiter(weights.values(), dtype=np.int64, count=n_e)
    return WeightedDigraph(labels, src, dst, w)


def _iter_observations(events: Iterable[RetweetEvent]) -> Iterator[tuple[str, int, int, bool, bool]]:
    # One observation per participating role: (user, ts, followers, bot, verified).
    for e in events:
        yield e.retweetee, e.timestamp, e.retweetee_followers, e.retweetee_bot, e.retweetee_verified
        yield e.retweeter, e.timestamp, e.retweeter_followers, e.retweeter_bot, e.retweeter_verified


def build_follower_logs(events: Iterable[RetweetEvent]) -> dict[str, FollowerLog]:
    """Per-user follower-count log; simultaneous observations keep the last in stream order."""
    raw: dict[str, list[tuple[int, int]]] = {}
    for user, ts, followers, _, _ in _iter_observations(events):
        raw.setdefault(user, []).append((ts, followers))
    logs: dict[str, FollowerLog] = {}
    for user, obs in raw.items():
        obs.sort(key=lambda o: o[0])  # stable: stream order preserved within ties
        collapsed: list[tuple[int, int]] = []
        for ts, followers in obs:
            if collapsed and collapsed[-1][0] == ts:
                collapsed[-1] = (ts, followers)
            else:
                collapsed.append((ts, followers))
        logs[user] = FollowerLog(user, tuple(collapsed))
    return logs


def follower_table_by_lexsort(columns: EventColumns) -> FollowerSnapshots:
    """The flat follower table from one lexsort of every observation by
    (user, ts, stream position), the retweetee observation of an event
    before its retweeter observation; the last of each (user, ts) run is kept."""
    n = len(columns)
    user = np.concatenate([columns.src, columns.dst])
    ts = np.concatenate([columns.ts, columns.ts])
    count = np.concatenate([columns.src_followers, columns.dst_followers])
    seq = np.concatenate([2 * np.arange(n), 2 * np.arange(n) + 1])
    order = np.lexsort((seq, ts, user))
    user, ts, count = user[order], ts[order], count[order]
    keep = np.ones(len(user), dtype=bool)
    keep[:-1] = (user[1:] != user[:-1]) | (ts[1:] != ts[:-1])
    user, ts, count = user[keep], ts[keep], count[keep]
    ptr = np.zeros(len(columns.users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(user, minlength=len(columns.users)), out=ptr[1:])
    return FollowerSnapshots(columns.users, ptr, ts, count)


def user_flag_rates(events: Iterable[RetweetEvent]) -> dict[str, UserFlagRates]:
    """Bot and verification rates over every activity record of each user."""
    counts: dict[str, list[int]] = {}
    for user, _, _, bot, verified in _iter_observations(events):
        row = counts.setdefault(user, [0, 0, 0])
        row[0] += 1
        row[1] += int(bot)
        row[2] += int(verified)
    return {
        user: UserFlagRates(user, bot / n, verified / n, n)
        for user, (n, bot, verified) in counts.items()
    }


def flag_rates_by_user(columns: EventColumns) -> dict[str, UserFlagRates]:
    """`EventColumns.flag_rates` arrays read back as one record per user."""
    n, bot, ver = (a.tolist() for a in columns.flag_rates())
    return {u: UserFlagRates(u, bot[i], ver[i], n[i]) for i, u in enumerate(columns.users)}


def daily_counts(events: Iterable[RetweetEvent], content_class: str, aligned: set[str]) -> dict[int, int]:
    """Per-UTC-day counts of class retweets given or received by aligned users."""
    counts: dict[int, int] = {}
    for e in events:
        if e.content_class != content_class:
            continue
        if e.retweetee in aligned or e.retweeter in aligned:
            day = e.timestamp // SECONDS_PER_DAY
            counts[day] = counts.get(day, 0) + 1
    return counts


def follower_snapshot(log: FollowerLog | None, before: int) -> tuple[int, bool]:
    """Most recent count strictly before `before`; falls back to the earliest
    observation overall (flagged) when none exists."""
    if log is None or not log.observations:
        return 0, True
    last = None
    for ts, count in log.observations:
        if ts >= before:
            break
        last = count
    if last is not None:
        return last, False
    return log.observations[0][1], True


def active_users(logs: Mapping[str, FollowerLog], window: TimeWindow, min_obs: int = 2) -> set[str]:
    """Users observed at least min_obs times within [window.start, window.end)."""
    if min_obs < 2:
        raise ValueError(f"min_obs must be >= 2, got {min_obs}")
    active = set()
    for user, log in logs.items():
        times = [ts for ts, _ in log.observations]
        lo = bisect_left(times, window.start)
        hi = bisect_left(times, window.end)
        if hi - lo >= min_obs:
            active.add(user)
    return active


def window_growth_rate(
    logs: Mapping[str, FollowerLog],
    aligned: Iterable[str],
    window: TimeWindow,
    content_class: str | None = None,
    min_obs: int = 2,
) -> GrowthPoint:
    """Aggregate first/last in-window counts of active aligned users, one user at a time."""
    f_first = 0
    f_last = 0
    n_active = 0
    for user in aligned:
        log = logs.get(user)
        if log is None:
            continue
        obs = log.observations
        times = [ts for ts, _ in obs]
        lo = bisect_left(times, window.start)
        hi = bisect_left(times, window.end)
        if hi - lo < min_obs:
            continue
        n_active += 1
        f_first += obs[lo][1]
        f_last += obs[hi - 1][1]
    if n_active == 0 or f_first == 0:
        return GrowthPoint(window, content_class, None, n_active, f_first, f_last)
    return GrowthPoint(window, content_class, (f_last - f_first) / f_first, n_active, f_first, f_last)


# -- graphs and diagnostics, one edge or node side at a time -----------------------


def digraph_of(items: Iterable[tuple[str, str, int]]) -> WeightedDigraph:
    """A graph from (src, dst, weight) triples; repeated pairs accumulate.

    Labels are interned in first-appearance order, src before dst.
    """
    weights: dict[tuple[str, str], int] = {}
    index: dict[str, int] = {}
    for src, dst, w in items:
        if w <= 0:
            raise ValueError(f"non-positive weight {w} on edge ({src!r}, {dst!r})")
        for u in (src, dst):
            index.setdefault(u, len(index))
        weights[(src, dst)] = weights.get((src, dst), 0) + int(w)
    src_idx = np.array([index[s] for s, _ in weights], dtype=np.int64)
    dst_idx = np.array([index[d] for _, d in weights], dtype=np.int64)
    return WeightedDigraph(list(index), src_idx, dst_idx, np.array(list(weights.values()), dtype=np.int64))


def edge_set(g: WeightedDigraph) -> set[tuple[str, str]]:
    """The (src, dst) label pairs of g's edges."""
    return {(g.labels[s], g.labels[d]) for s, d in zip(g.edge_src, g.edge_dst)}


def weight_of(g: WeightedDigraph, src: str, dst: str) -> int:
    """Weight of the edge src -> dst, 0 when there is none."""
    return next((w for s, d, w in g.edges() if (s, d) == (src, dst)), 0)


def backbone_overlap(reference: WeightedDigraph, backbone: WeightedDigraph) -> float:
    """Fraction of reference edges also present in the backbone."""
    ref = edge_set(reference)
    if not ref:
        raise ValueError("reference edge set is empty")
    return len(ref & edge_set(backbone)) / len(ref)


def global_threshold_backbone(g: WeightedDigraph, w_min: int) -> WeightedDigraph:
    """Baseline backbone: keep edges with weight >= w_min, drop bare nodes."""
    if w_min < 0:
        raise ValueError(f"w_min must be non-negative, got {w_min}")
    return g.subgraph_from_edge_mask(g.edge_weight >= w_min)


def local_heterogeneity(g: WeightedDigraph, node: str, direction: str) -> float:
    """Upsilon = k * sum of squared normalized incident weights, in [1, k]."""
    i = g.labels.index(node)
    if direction == "out":
        w = g.edge_weight[g.edge_src == i].astype(np.float64)
    elif direction == "in":
        w = g.edge_weight[g.edge_dst == i].astype(np.float64)
    else:
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    k = len(w)
    if k == 0:
        raise ValueError(f"node {node!r} has no {direction}-edges")
    p = w / w.sum()
    return float(k * np.sum(p * p))


def heterogeneity_rows(g: WeightedDigraph, a: float) -> list[tuple[str, str, int, float, float, float, bool]]:
    """(node, direction, k, upsilon, null_mean, null_std, flagged) per node
    side: out sides first, then in sides, each in node-index order."""
    rows = []
    for direction, degree in (("out", g.k_out), ("in", g.k_in)):
        for i in np.flatnonzero(degree >= 1):
            k = int(degree[i])
            upsilon = local_heterogeneity(g, g.labels[i], direction)
            mu, var = null_heterogeneity_moments(k)
            sigma = math.sqrt(max(var, 0.0))
            rows.append((g.labels[i], direction, k, upsilon, mu, sigma, upsilon > mu + a * sigma))
    return rows


def edge_significance(g: WeightedDigraph) -> list[tuple[str, str, int, float, float, float, float, float]]:
    """(src, dst, weight, p_out, p_in, alpha_out, alpha_in, alpha) per edge in
    canonical order, from per-node Python sums and the closed form."""
    out_w: dict[str, list[int]] = {}
    in_w: dict[str, list[int]] = {}
    edges = list(g.edges())
    for s, d, w in edges:
        out_w.setdefault(s, []).append(w)
        in_w.setdefault(d, []).append(w)
    rows = []
    for s, d, w in edges:
        k_out, k_in = len(out_w[s]), len(in_w[d])
        p_out, p_in = w / sum(out_w[s]), w / sum(in_w[d])
        a_out = 1.0 if k_out == 1 else (1.0 - p_out) ** (k_out - 1)
        a_in = 1.0 if k_in == 1 else (1.0 - p_in) ** (k_in - 1)
        rows.append((s, d, w, p_out, p_in, a_out, a_in, min(a_out, a_in)))
    return rows


# -- the label-space forms the id code replaced --------------------------------------


def label_ids(users: Sequence[str], labels: Iterable[str]) -> np.ndarray:
    """Index in `users` of each label the table holds, in input order; unknown labels are dropped."""
    index = {u: i for i, u in enumerate(users)}
    return np.array([index[u] for u in labels if u in index], dtype=np.int64)


def label_mask(users: Sequence[str], labels: Iterable[str]) -> np.ndarray:
    """Mask over `users` of the labels it holds; unknown labels are dropped."""
    mask = np.zeros(len(users), dtype=bool)
    mask[label_ids(users, labels)] = True
    return mask


def class_of_users(users: Sequence[str], by_class: Mapping[str, Iterable[str]]) -> np.ndarray:
    """Each user's class index (-1 for none) from label sets per class, as `_load_labels` reads them."""
    aligned_class = np.full(len(users), -1, dtype=np.int64)
    for cls, labels in by_class.items():
        aligned_class[label_ids(users, labels)] = CONTENT_CLASSES.index(cls)
    return aligned_class


def reachable_labels(g: WeightedDigraph, sources: Iterable[str], reverse: bool = False) -> set[str]:
    """Labels reachable from `sources` (included), or reaching them when
    `reverse`, by whole-frontier expansion; an unknown label is a KeyError."""
    index = {label: i for i, label in enumerate(g.labels)}
    ptr = g._in_ptr if reverse else g._out_ptr
    nbr = g.edge_src[g._in_order] if reverse else g.edge_dst
    seen = np.zeros(g.n_nodes, dtype=bool)
    for label in sources:
        if label not in index:
            raise KeyError(f"unknown {'target' if reverse else 'source'} node: {label!r}")
        seen[index[label]] = True
    frontier = np.flatnonzero(seen)
    while len(frontier):
        lo = ptr[frontier]
        lengths = ptr[frontier + 1] - lo
        offsets = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        reached = nbr[offsets + np.arange(len(offsets))]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return {g.labels[i] for i in np.flatnonzero(seen)}


def cascade_populations_by_label(
    g: WeightedDigraph, aligned_class: set[str], aligned_any: set[str]
) -> tuple[set[str], set[str]]:
    """(V_a, V_sw) by set algebra on labels."""
    seeds = aligned_class & set(g.labels)
    if not seeds:
        return set(), set()
    v_sw = reachable_labels(g, seeds) - aligned_any - seeds
    if not v_sw:
        return set(), set()
    return reachable_labels(g, v_sw, reverse=True) & seeds, v_sw


def first_at_or_after_by_keys(table: FollowerSnapshots, ids: np.ndarray, t: int) -> np.ndarray:
    """Row of each user's first observation at or after t, by one searchsorted
    over keys user * (n_times + 1) + rank of ts among the distinct times."""
    times, rank = np.unique(table.ts, return_inverse=True)
    user = np.repeat(np.arange(len(table.users), dtype=np.int64), np.diff(table.ptr))
    keys = user * (len(times) + 1) + rank
    return np.searchsorted(keys, np.asarray(ids) * (len(times) + 1) + np.searchsorted(times, t))


def backbone_pair_mask_by_search(columns: EventColumns, backbone: WeightedDigraph) -> np.ndarray:
    """Mask of events whose (src, dst) pair is a backbone edge, by searchsorted
    of every event's pair code in the sorted backbone codes."""
    ids = columns.ids(backbone.labels)
    src, dst = ids[backbone.edge_src], ids[backbone.edge_dst]
    known = (src >= 0) & (dst >= 0)
    wanted = np.unique(src[known] * len(columns.users) + dst[known])
    if not len(wanted):
        return np.zeros(len(columns), dtype=bool)
    codes = columns.src * len(columns.users) + columns.dst
    pos = np.searchsorted(wanted, codes)
    np.minimum(pos, len(wanted) - 1, out=pos)
    return wanted[pos] == codes


def window_loss(r_hat_by_class: Mapping[str, float], r_by_class: Mapping[str, float]) -> float:
    """Sum of squared per-class differences between simulated and empirical rates."""
    missing = set(r_by_class) ^ set(r_hat_by_class)
    if missing:
        raise ValueError(f"class sets differ: {sorted(missing)}")
    return float(sum((r_hat_by_class[p] - r_by_class[p]) ** 2 for p in r_by_class))


def acceptance_losses_by_axis_sum(rho: np.ndarray, empirical: np.ndarray, delta: float) -> np.ndarray:
    """Window loss of every (grid point, replicate) pair of a (grid, replicate,
    class) array, flat index grid * runs + replicate, summed over the class axis."""
    return ((delta * rho - empirical) ** 2).sum(axis=2).reshape(-1)


def simulate_growth_rate(setup, r0: float, delta: float, rng: np.random.Generator) -> float:
    """One replicate of the simulated growth rate, drawn on its own.

    The final-size relation fixes how many swayable users recover; they are
    the first that many of one uniform permutation of the pool, and their
    followers over the aligned follower mass, scaled by delta, give the rate.
    """
    sum_a = int(setup.f_a.sum())
    if len(setup.f_a) == 0 or sum_a <= 0:
        raise ValueError("cascade setup has no aligned follower mass")
    count = swayable_recovered_count(setup.n, final_size(setup.s0, r0), setup.i0)
    sampled = int(setup.f_sw[rng.permutation(len(setup.f_sw))[:count]].sum())
    return delta * (sampled / sum_a)


# -- alignment, one event or user at a time -----------------------------------------


def involvement_counts(events: Iterable[tuple[str, str, str]]) -> dict[str, dict[str, int]]:
    """user -> class -> events of that class the user takes part in, from
    (src, dst, class) triples; a self-loop counts once per role."""
    counts: dict[str, dict[str, int]] = {}
    for src, dst, cls in events:
        for user in (src, dst):
            row = counts.setdefault(user, dict.fromkeys(CONTENT_CLASSES, 0))
            row[cls] += 1
    return counts


def classify_users(counts: Mapping[str, Mapping[str, int]], theta: float, min_involvement: int = 0) -> dict[str, str]:
    """The class holding strictly more than theta of each user's involvement,
    or "unaligned"; users below the involvement floor are unaligned."""
    labels = {}
    for user, row in counts.items():
        total = sum(row.values())
        labels[user] = "unaligned"
        if total >= min_involvement:
            labels[user] = next((cls for cls in CONTENT_CLASSES if row[cls] / total > theta), "unaligned")
    return labels


def ternary_cells(rows: Iterable[Mapping[str, int]], bins: int) -> dict[tuple[int, int], int]:
    """Cells (factual bin, misleading bin) per involvement row; a row past the
    simplex's far edge gives up misleading bins first, then factual ones."""
    hist: dict[tuple[int, int], int] = {}
    factual, misleading = CONTENT_CLASSES[0], CONTENT_CLASSES[1]
    for row in rows:
        total = sum(row.values())
        i = min(int(row[factual] / total * bins), bins - 1)
        j = min(int(row[misleading] / total * bins), bins - 1)
        while i + j > bins - 1:
            if j > 0:
                j -= 1
            else:
                i -= 1
        hist[(i, j)] = hist.get((i, j), 0) + 1
    return hist
