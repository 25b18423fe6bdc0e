"""Directed weighted graphs with interned node ids and array adjacency.

Edges point from the retweeted user (creator) to the retweeter (consumer),
i.e. along the direction of information flow. Multiplicity is carried by
the integer edge weight; self-loops are allowed, multi-edges are not.
Graphs are immutable after construction, so every query is safe to share
across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

_BINARY_MAGIC = b"SWGB"
_BINARY_VERSION = 1


class WeightedDigraph:
    """Immutable directed weighted graph whose node i is user `node_user[i]`
    (default i) of the label table `users`; node labels are built on demand."""

    __slots__ = (
        "users",
        "node_user",
        "_labels",
        "edge_src",
        "edge_dst",
        "edge_weight",
        "_out_ptr",
        "_in_ptr",
        "_in_order",
        "_k_out",
        "_k_in",
        "_s_out",
        "_s_in",
    )

    def __init__(self, users: Sequence[str], src: np.ndarray, dst: np.ndarray, weight: np.ndarray, node_user=None):
        self.users = users
        self.node_user = np.arange(len(users), dtype=np.int64) if node_user is None else node_user
        self._labels: tuple[str, ...] | None = None
        n = len(self.node_user)
        # Canonical edge order: sorted by (src, dst). Inputs must be deduplicated.
        # One int64 key sorts faster than a lexsort, and at once when already in order.
        order = np.argsort(src * n + dst, kind="stable")
        self.edge_src = np.ascontiguousarray(src[order], dtype=np.int64)
        self.edge_dst = np.ascontiguousarray(dst[order], dtype=np.int64)
        self.edge_weight = np.ascontiguousarray(weight[order], dtype=np.int64)
        if np.any(self.edge_weight <= 0):
            raise ValueError("edge weights must be positive")
        self._out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_src, minlength=n), out=self._out_ptr[1:])
        self._in_order = np.argsort(self.edge_dst * n + self.edge_src, kind="stable")
        self._in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_dst, minlength=n), out=self._in_ptr[1:])
        self._k_out = np.diff(self._out_ptr)
        self._k_in = np.diff(self._in_ptr)
        self._s_out = np.bincount(self.edge_src, weights=self.edge_weight, minlength=n).astype(np.int64)
        self._s_in = np.bincount(self.edge_dst, weights=self.edge_weight, minlength=n).astype(np.int64)

    # -- basic queries ------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            users = self.users
            self._labels = tuple(users[i] for i in self.node_user.tolist())
        return self._labels

    @property
    def n_nodes(self) -> int:
        return len(self.node_user)

    @property
    def n_edges(self) -> int:
        return len(self.edge_weight)

    @property
    def total_weight(self) -> int:
        return int(self.edge_weight.sum())

    def edges(self) -> Iterator[tuple[str, str, int]]:
        for s, d, w in zip(self.edge_src, self.edge_dst, self.edge_weight):
            yield self.labels[s], self.labels[d], int(w)

    @property
    def k_out(self) -> np.ndarray:
        return self._k_out

    @property
    def k_in(self) -> np.ndarray:
        return self._k_in

    @property
    def s_out(self) -> np.ndarray:
        return self._s_out

    @property
    def s_in(self) -> np.ndarray:
        return self._s_in

    # -- derived graphs -----------------------------------------------------

    def subgraph_from_edge_mask(self, mask: np.ndarray) -> "WeightedDigraph":
        """Keep the masked edges, then drop nodes left without any edge."""
        src = self.edge_src[mask]
        dst = self.edge_dst[mask]
        w = self.edge_weight[mask]
        keep = np.zeros(self.n_nodes, dtype=bool)
        keep[src] = True
        keep[dst] = True
        remap = np.cumsum(keep) - 1
        return WeightedDigraph(self.users, remap[src], remap[dst], w, self.node_user[keep])


@dataclass(frozen=True)
class PartitionReport:
    """Creator/consumer split plus cross-component retweet weight fractions."""

    creators_only: frozenset[str]
    consumers_only: frozenset[str]
    both: frozenset[str]
    cross_weight_fractions: dict[tuple[str, str], float]

    def node_fractions(self) -> dict[str, float]:
        total = len(self.creators_only) + len(self.consumers_only) + len(self.both)
        if total == 0:
            return {"creators_only": 0.0, "consumers_only": 0.0, "both": 0.0}
        return {
            "creators_only": len(self.creators_only) / total,
            "consumers_only": len(self.consumers_only) / total,
            "both": len(self.both) / total,
        }


def creator_consumer_partition(g: WeightedDigraph) -> PartitionReport:
    """Split nodes by role and measure retweet flow between the components."""
    has_out = g.k_out > 0
    has_in = g.k_in > 0
    labels = np.asarray(g.labels, dtype=object)
    creators = frozenset(labels[has_out & ~has_in])
    consumers = frozenset(labels[~has_out & has_in])
    both = frozenset(labels[has_out & has_in])

    comp = np.where(has_out & has_in, 2, np.where(has_out, 0, 1)).astype(np.int8)
    names = ("creators_only", "consumers_only", "both")
    total = g.edge_weight.sum()
    fractions: dict[tuple[str, str], float] = {}
    if total > 0:
        pair_code = comp[g.edge_src] * 3 + comp[g.edge_dst]
        sums = np.bincount(pair_code, weights=g.edge_weight, minlength=9)
        for code, s in enumerate(sums):
            if s > 0:
                fractions[(names[code // 3], names[code % 3])] = float(s / total)
    return PartitionReport(creators, consumers, both, fractions)


def reachable_set(g: WeightedDigraph, sources: np.ndarray) -> np.ndarray:
    """Mask of the nodes with a directed path from some source node (sources included)."""
    return _closure(g, sources, "source", g._out_ptr, g.edge_dst)


def reverse_reachable_set(g: WeightedDigraph, targets: np.ndarray) -> np.ndarray:
    """Mask of the nodes from which some target node is reachable (targets included)."""
    return _closure(g, targets, "target", g._in_ptr, g.edge_src[g._in_order])


def _closure(g: WeightedDigraph, starts: np.ndarray, role: str, ptr: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from the node ids `starts` (included)
    along the CSR adjacency (ptr, nbr), expanding the whole frontier at each step."""
    starts = np.asarray(starts, dtype=np.int64)
    bad = (starts < 0) | (starts >= g.n_nodes)
    if bad.any():
        raise KeyError(f"unknown {role} node: {int(starts[bad][0])}")
    seen = np.zeros(g.n_nodes, dtype=bool)
    seen[starts] = True
    frontier = np.flatnonzero(seen)
    while len(frontier):
        lo = ptr[frontier]
        lengths = ptr[frontier + 1] - lo
        # Position j of the concatenated neighbour lists reads nbr[lo[f] + (j - start of f's run)].
        offsets = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        reached = nbr[offsets + np.arange(len(offsets))]
        # Sort and diff, not np.unique: NumPy 2.x answers a plain np.unique
        # through a hash table, far slower than a sort on int64.
        frontier = np.sort(reached[~seen[reached]])
        frontier = frontier[np.diff(frontier, prepend=-1) != 0]
        seen[frontier] = True
    return seen


# -- serialization ----------------------------------------------------------


def save_binary(g: WeightedDigraph, path: str) -> None:
    """Binary edge list: header (counts, version), node table, edge triples."""
    if g.n_nodes >= 1 << 32:
        raise ValueError("binary format limited to < 2^32 nodes")
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<HQQ", _BINARY_VERSION, g.n_nodes, g.n_edges))
        for label in g.labels:
            data = label.encode("utf-8")
            if len(data) >= 1 << 16:
                raise ValueError(f"node label too long: {label[:32]!r}...")
            fh.write(struct.pack("<H", len(data)))
            fh.write(data)
        fh.write(g.edge_src.astype("<u4").tobytes())
        fh.write(g.edge_dst.astype("<u4").tobytes())
        fh.write(g.edge_weight.astype("<u8").tobytes())


def load_binary(path: str) -> WeightedDigraph:
    """Read a `save_binary` file; a ValueError naming the path when it has a
    bad magic or version, fewer bytes than its header promises, or bytes
    after the edge weights."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise ValueError(f"{path}: truncated graph file ({len(data)} bytes)")
        pos += n
        return data[pos - n : pos]

    if data[:4] != _BINARY_MAGIC:
        raise ValueError(f"{path}: not a graph file: bad magic {data[:4]!r}")
    version, n_nodes, n_edges = struct.unpack("<4sHQQ", take(22))[1:]
    if version != _BINARY_VERSION:
        raise ValueError(f"{path}: unsupported graph format version {version}")
    try:
        labels = [take(struct.unpack("<H", take(2))[0]).decode("utf-8") for _ in range(n_nodes)]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: bad node label: {exc}") from None
    src = np.frombuffer(take(4 * n_edges), dtype="<u4").astype(np.int64)
    dst = np.frombuffer(take(4 * n_edges), dtype="<u4").astype(np.int64)
    w = np.frombuffer(take(8 * n_edges), dtype="<u8").astype(np.int64)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} bytes after the edge weights")
    return WeightedDigraph(labels, src, dst, w)
