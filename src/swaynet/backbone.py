"""Disparity-filter backbone extraction and weight-heterogeneity diagnostics.

An edge survives the filter when its weight is statistically surprising
under a null model that spreads a node's strength uniformly at random over
its edges. The null density for a normalized weight x at degree k is
rho(x) = (k-1)(1-x)^(k-2), giving the closed-form p-value
alpha = (1-p)^(k-1); a degree-1 side is assigned alpha = 1 so such an edge
can only be kept by its other endpoint. The edge verdict combines both
sides by minimum and is retained iff alpha < alpha_level (strict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import WeightedDigraph


def edge_alpha(p, k):
    """Closed-form significance of normalized weights p at degrees k.

    alpha = (1-p)^(k-1) for k >= 2; a degree-1 node cannot reject the null,
    so alpha = 1. Takes scalars or arrays; a pair of scalars gives a float.
    """
    p = np.asarray(p, dtype=np.float64)
    k = np.asarray(k)
    bad_p = ~((0.0 < p) & (p <= 1.0))
    if bad_p.any():
        raise ValueError(f"normalized weight must be in (0, 1], got {p[bad_p].flat[0]}")
    bad_k = (k < 1) | (k != np.floor(k))
    if bad_k.any():
        raise ValueError(f"degree must be a positive integer, got {k[bad_k].flat[0]}")
    alpha = np.where(k == 1, 1.0, np.power(1.0 - p, k - 1, dtype=np.float64))
    return alpha if alpha.ndim else float(alpha)


def significance_arrays(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge (p_out, p_in, alpha_out, alpha_in, alpha) aligned to g's edges.

    Vectorized over node sides; the per-edge combine is min, so the result
    is independent of evaluation order.
    """
    w = g.edge_weight.astype(np.float64)
    p_out = w / g.s_out[g.edge_src].astype(np.float64)
    p_in = w / g.s_in[g.edge_dst].astype(np.float64)
    alpha_out = edge_alpha(p_out, g.k_out[g.edge_src])
    alpha_in = edge_alpha(p_in, g.k_in[g.edge_dst])
    return p_out, p_in, alpha_out, alpha_in, np.minimum(alpha_out, alpha_in)


def disparity_filter(g: WeightedDigraph, alpha_level: float) -> WeightedDigraph:
    """Keep edges with min(alpha_out, alpha_in) < alpha_level, drop bare nodes.

    Retention is strictly below the level; ties at the level are dropped.
    Weights of retained edges are unchanged.
    """
    if not (0.0 < alpha_level <= 1.0):
        raise ValueError(f"alpha_level must be in (0, 1], got {alpha_level}")
    _, _, _, _, alpha = significance_arrays(g)
    return g.subgraph_from_edge_mask(alpha < alpha_level)


@dataclass(frozen=True)
class SizeCurvePoint:
    alpha: float
    node_fraction: float
    edge_fraction: float
    weight_fraction: float


def backbone_size_curve(g: WeightedDigraph, alpha_grid: Sequence[float]) -> list[SizeCurvePoint]:
    """Fractions of nodes/edges/weight kept at each significance level."""
    grid = list(alpha_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha_grid must be sorted ascending")
    if g.n_edges == 0:
        return [SizeCurvePoint(a, 0.0, 0.0, 0.0) for a in grid]
    _, _, _, _, alpha = significance_arrays(g)
    total_w = g.edge_weight.sum()
    points = []
    for level in grid:
        mask = alpha < level
        kept = np.zeros(g.n_nodes, dtype=bool)
        kept[g.edge_src[mask]] = True
        kept[g.edge_dst[mask]] = True
        points.append(
            SizeCurvePoint(
                alpha=float(level),
                node_fraction=float(kept.sum() / g.n_nodes),
                edge_fraction=float(mask.sum() / g.n_edges),
                weight_fraction=float(g.edge_weight[mask].sum() / total_w),
            )
        )
    return points


# -- heterogeneity ------------------------------------------------------------


def null_heterogeneity_moments(k: int) -> tuple[float, float]:
    """Mean and variance of Upsilon under the uniform-partition null model."""
    if int(k) != k or k < 1:
        raise ValueError(f"degree must be a positive integer, got {k}")
    k = int(k)
    mu = 2.0 * k / (k + 1)
    var = k * k * ((20.0 + 4.0 * k) / ((k + 1) * (k + 2) * (k + 3)) - 4.0 / ((k + 1) * (k + 1)))
    return mu, var


@dataclass(frozen=True, eq=False)
class HeterogeneityReport:
    """Observed local heterogeneity against the null band mu + a*sigma.

    One entry per node side with at least one edge: out sides first, then
    in sides, each in node-index order. `node` indexes the graph's labels.
    """

    band_multiplier: float
    node: np.ndarray
    direction: np.ndarray  # "out" or "in"
    k: np.ndarray
    upsilon: np.ndarray
    null_mean: np.ndarray
    null_std: np.ndarray
    flagged: np.ndarray
    degree_buckets: dict[int, tuple[int, int]]  # bucket floor (power of two), ascending -> (node sides, flagged)

    @property
    def flagged_fraction(self) -> float:
        if not len(self.flagged):
            return 0.0
        return int(self.flagged.sum()) / len(self.flagged)


def _upsilon_per_node(g: WeightedDigraph, direction: str) -> np.ndarray:
    w = g.edge_weight.astype(np.float64)
    if direction == "out":
        owner, strength, degree = g.edge_src, g.s_out, g.k_out
    else:
        owner, strength, degree = g.edge_dst, g.s_in, g.k_in
    p = np.zeros(g.n_edges, dtype=np.float64)
    active = strength[owner] > 0
    p[active] = w[active] / strength[owner][active]
    sq = np.bincount(owner, weights=p * p, minlength=g.n_nodes)
    ups = np.full(g.n_nodes, np.nan)
    mask = degree >= 1
    ups[mask] = degree[mask] * sq[mask]
    return ups


def strong_disorder_test(g: WeightedDigraph, a: float = 2.0) -> HeterogeneityReport:
    """Flag node sides whose Upsilon exceeds the null band mu + a*sigma.

    The null moments are computed once per distinct degree.
    """
    if a <= 0:
        raise ValueError(f"band multiplier must be positive, got {a}")
    out_nodes, in_nodes = np.flatnonzero(g.k_out >= 1), np.flatnonzero(g.k_in >= 1)
    node = np.concatenate([out_nodes, in_nodes])
    k = np.concatenate([g.k_out[out_nodes], g.k_in[in_nodes]])
    upsilon = np.concatenate([_upsilon_per_node(g, "out")[out_nodes], _upsilon_per_node(g, "in")[in_nodes]])
    degrees, side_degree = np.unique(k, return_inverse=True)
    moments = [null_heterogeneity_moments(int(d)) for d in degrees]
    mu = np.array([m for m, _ in moments], dtype=np.float64)
    sigma = np.array([math.sqrt(max(var, 0.0)) for _, var in moments], dtype=np.float64)
    flagged = upsilon > (mu + a * sigma)[side_degree]
    # Bucket floor: the largest power of two <= k, from k = m * 2**e with m in [0.5, 1).
    bucket = np.int64(1) << (np.frexp(k.astype(np.float64))[1] - 1)
    floors, side_bucket = np.unique(bucket, return_inverse=True)
    n_sides = np.bincount(side_bucket, minlength=len(floors))
    n_flagged = np.bincount(side_bucket, weights=flagged, minlength=len(floors)).astype(np.int64)
    return HeterogeneityReport(
        band_multiplier=a,
        node=node,
        direction=np.repeat(np.array(["out", "in"]), [len(out_nodes), len(in_nodes)]),
        k=k,
        upsilon=upsilon,
        null_mean=mu[side_degree],
        null_std=sigma[side_degree],
        flagged=flagged,
        degree_buckets={int(b): (int(n), int(f)) for b, n, f in zip(floors, n_sides, n_flagged)},
    )


# -- topology ------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    beta: float
    fit_range: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class TopologyReport:
    in_degree_ccdf: tuple[tuple[int, float], ...]
    out_degree_ccdf: tuple[tuple[int, float], ...]
    weight_distribution: tuple[tuple[int, int], ...]
    average_clustering: float
    power_law: PowerLawFit | None


def _ccdf(values: np.ndarray) -> tuple[tuple[int, float], ...]:
    if len(values) == 0:
        return ()
    uniq, counts = np.unique(values, return_counts=True)
    # P(X >= x) at each observed x.
    tail = counts[::-1].cumsum()[::-1] / len(values)
    return tuple((int(u), float(t)) for u, t in zip(uniq, tail))


def average_clustering(g: WeightedDigraph) -> float:
    """Average local clustering of the undirected, unweighted projection.

    Self-loops are ignored; nodes with fewer than two neighbours count 0.
    """
    neighbours: list[set[int]] = [set() for _ in range(g.n_nodes)]
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            neighbours[s].add(int(d))
            neighbours[d].add(int(s))
    if g.n_nodes == 0:
        return 0.0
    total = 0.0
    for nbrs in neighbours:
        k = len(nbrs)
        if k < 2:
            continue
        # Each link among neighbours is seen from both ends.
        twice_links = sum(len(nbrs & neighbours[u]) for u in nbrs)
        total += twice_links / (k * (k - 1))
    return total / g.n_nodes


def fit_powerlaw_tail(
    values: np.ndarray,
    fit_range: tuple[float, float] | None = None,
    n_bins: int = 16,
) -> PowerLawFit | None:
    """Exponent of a density ~ x^(-beta) tail via log-binned CCDF regression.

    The complementary cumulative of such a density falls as x^(1-beta), so
    beta = 1 - slope of the CCDF on log-log axes. Returns None when fewer
    than three usable grid points remain in the range.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[values > 0]
    if len(values) == 0:
        return None
    lo, hi = fit_range if fit_range is not None else (values.min(), values.max())
    if not (0 < lo < hi):
        return None
    grid = np.geomspace(lo, hi, n_bins)
    sorted_vals = np.sort(values)
    ccdf = 1.0 - np.searchsorted(sorted_vals, grid, side="left") / len(values)
    usable = ccdf > 0
    if np.unique(grid[usable]).size < 3:
        return None
    x = np.log(grid[usable])
    y = np.log(ccdf[usable])
    slope, _ = np.polyfit(x, y, 1)
    return PowerLawFit(beta=float(1.0 - slope), fit_range=(float(lo), float(hi)), n_points=int(usable.sum()))


def topology_report(g: WeightedDigraph, fit_range: tuple[float, float] | None = None) -> TopologyReport:
    """Degree/weight distributions, clustering, and the weight-tail exponent."""
    if g.n_nodes == 0:
        raise ValueError("topology report requires a non-empty graph")
    uniq_w, counts_w = np.unique(g.edge_weight, return_counts=True)
    return TopologyReport(
        in_degree_ccdf=_ccdf(g.k_in[g.k_in > 0]),
        out_degree_ccdf=_ccdf(g.k_out[g.k_out > 0]),
        weight_distribution=tuple((int(w), int(c)) for w, c in zip(uniq_w, counts_w)),
        average_clustering=average_clustering(g),
        power_law=fit_powerlaw_tail(g.edge_weight, fit_range),
    )
