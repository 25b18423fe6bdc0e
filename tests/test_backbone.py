import math

import numpy as np
import pytest
from scipy import integrate

from oracles import (
    backbone_overlap,
    digraph_of,
    edge_set,
    edge_significance,
    global_threshold_backbone,
    heterogeneity_rows,
    local_heterogeneity,
    weight_of,
)
from swaynet.backbone import (
    backbone_size_curve,
    disparity_filter,
    edge_alpha,
    fit_powerlaw_tail,
    null_heterogeneity_moments,
    significance_arrays,
    strong_disorder_test,
    topology_report,
)
from swaynet.graph import WeightedDigraph


def graph_of(*edges):
    return digraph_of(edges)


# -- independent oracles ---------------------------------------------------------


def quad_alpha(p: float, k: int) -> float:
    """1 - integral of the null density rho(x) = (k-1)(1-x)^(k-2) over [0, p]."""
    if k == 1:
        return 1.0
    value, _ = integrate.quad(lambda x: (k - 1) * (1 - x) ** (k - 2), 0.0, p)
    return 1.0 - value


def brute_filter_edges(edges: list[tuple[str, str, int]], level: float) -> set[tuple[str, str]]:
    """Edge-by-edge evaluation of the closed forms, no vectorization shared."""
    out_w: dict[str, list[int]] = {}
    in_w: dict[str, list[int]] = {}
    for s, d, w in edges:
        out_w.setdefault(s, []).append(w)
        in_w.setdefault(d, []).append(w)
    kept = set()
    for s, d, w in edges:
        k_out = len(out_w[s])
        k_in = len(in_w[d])
        a_out = 1.0 if k_out == 1 else (1.0 - w / sum(out_w[s])) ** (k_out - 1)
        a_in = 1.0 if k_in == 1 else (1.0 - w / sum(in_w[d])) ** (k_in - 1)
        if min(a_out, a_in) < level:
            kept.add((s, d))
    return kept


def random_weighted_graph(rng: np.random.Generator, max_nodes=50, max_weight=100):
    n = int(rng.integers(2, max_nodes + 1))
    density = rng.uniform(0.05, 0.4)
    edges = []
    for s in range(n):
        for d in range(n):
            if rng.random() < density:
                edges.append((f"n{s}", f"n{d}", int(rng.integers(1, max_weight + 1))))
    if not edges:
        edges = [("n0", "n1", int(rng.integers(1, max_weight + 1)))]
    return edges


def uniform_regular_graph(n: int, k: int, weight: int = 5):
    """Directed circulant: node i points to the next k nodes, equal weights."""
    edges = []
    for i in range(n):
        for step in range(1, k + 1):
            edges.append((f"n{i}", f"n{(i + step) % n}", weight))
    return graph_of(*edges)


class TestEdgeAlpha:
    def test_symmetric_two_edge_node(self):
        assert edge_alpha(0.5, 2) == 0.5

    def test_against_quadrature_frozen_value(self):
        # rho integrated from p to 1 for p=0.91, k=10.
        expected = quad_alpha(0.91, 10)
        assert expected == pytest.approx(3.874e-10, abs=1e-13)
        assert edge_alpha(0.91, 10) == pytest.approx(expected, abs=1e-13)

    def test_degree_one_always_one(self):
        for p in (0.01, 0.5, 1.0):
            assert edge_alpha(p, 1) == 1.0

    @pytest.mark.parametrize("p,k", [(0.0, 2), (1.5, 2), (0.5, 0), (0.5, 2.5)])
    def test_domain_errors(self, p, k):
        with pytest.raises(ValueError):
            edge_alpha(p, k)

    def test_closed_form_matches_quadrature_spotgrid(self):
        for k in (2, 5, 17, 60, 100):
            for p in (0.01, 0.2, 0.5, 0.9, 0.99):
                assert abs(edge_alpha(p, k) - quad_alpha(p, k)) < 1e-10

    def test_arrays_match_the_scalar_closed_form(self):
        p = [0.5, 0.91, 0.3, 1.0, 0.02]
        k = [2, 10, 1, 7, 60]
        expected = [1.0 if d == 1 else (1.0 - x) ** (d - 1) for x, d in zip(p, k)]
        got = edge_alpha(np.array(p), np.array(k))
        assert isinstance(got, np.ndarray)
        assert got.tolist() == pytest.approx(expected, rel=1e-12)
        assert [edge_alpha(x, d) for x, d in zip(p, k)] == pytest.approx(expected, rel=1e-12)

    def test_domain_errors_on_arrays(self):
        with pytest.raises(ValueError, match="normalized weight"):
            edge_alpha(np.array([0.5, 0.0]), np.array([2, 2]))
        with pytest.raises(ValueError, match="degree"):
            edge_alpha(np.array([0.5, 0.5]), np.array([2, 0]))


class TestDisparityFilter:
    def test_hub_keeps_only_heavy_edge(self):
        edges = [("h", "a", 98), ("h", "b", 1), ("h", "c", 1)]
        g = graph_of(*edges)
        kept = disparity_filter(g, 0.05)
        assert edge_set(kept) == brute_filter_edges(edges, 0.05) == {("h", "a")}
        assert weight_of(kept, "h", "a") == 98

    def test_uniform_weights_never_significant_at_5pct(self):
        for k in (2, 3, 10, 40):
            g = uniform_regular_graph(3 * k, k)
            assert disparity_filter(g, 0.05).n_edges == 0

    def test_empty_graph(self):
        g = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        assert disparity_filter(g, 0.05).n_edges == 0

    def test_degree_one_both_sides_dropped_below_one(self):
        g = graph_of(("a", "b", 100))
        assert disparity_filter(g, 0.9999).n_edges == 0

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            edges = random_weighted_graph(rng, max_nodes=25)
            g = graph_of(*edges)
            for level in (0.01, 0.05, 0.1, 0.37, 0.5):
                assert edge_set(disparity_filter(g, level)) == brute_filter_edges(edges, level)

    def test_nesting_in_alpha(self):
        rng = np.random.default_rng(321)
        edges = random_weighted_graph(rng, max_nodes=30)
        g = graph_of(*edges)
        previous: set = set()
        for level in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9):
            current = edge_set(disparity_filter(g, level))
            assert previous <= current
            previous = current

    def test_never_adds_edges_or_weight(self):
        edges = [("a", "b", 9), ("a", "c", 1), ("d", "b", 4)]
        g = graph_of(*edges)
        kept = disparity_filter(g, 0.6)
        original = {(s, d): w for s, d, w in edges}
        for s, d, w in kept.edges():
            assert original[(s, d)] == w


class TestGlobalThreshold:
    def test_threshold_semantics(self):
        g = graph_of(("a", "b", 1), ("c", "d", 5), ("e", "f", 23))
        kept = global_threshold_backbone(g, 5)
        assert {w for _, _, w in kept.edges()} == {5, 23}

    def test_zero_threshold_is_identity(self):
        g = graph_of(("a", "b", 1), ("c", "d", 5))
        kept = global_threshold_backbone(g, 0)
        assert edge_set(kept) == edge_set(g)

    def test_above_max_weight_empties(self):
        g = graph_of(("a", "b", 3))
        assert global_threshold_backbone(g, 4).n_edges == 0


class TestSizeCurve:
    def test_full_level_keeps_everything(self):
        # No edge in this fixture is double-degree-one, so alpha < 1 holds.
        g = graph_of(("h", "a", 9), ("h", "b", 1), ("x", "a", 2), ("x", "b", 5))
        points = backbone_size_curve(g, [1.0])
        assert (points[0].node_fraction, points[0].edge_fraction, points[0].weight_fraction) == (1.0, 1.0, 1.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(77)
        g = graph_of(*random_weighted_graph(rng, max_nodes=30))
        points = backbone_size_curve(g, [0.01, 0.05, 0.1, 0.37, 0.9])
        for a, b in zip(points, points[1:]):
            assert a.node_fraction <= b.node_fraction
            assert a.edge_fraction <= b.edge_fraction
            assert a.weight_fraction <= b.weight_fraction

    def test_uniform_regular_cutoff(self):
        k = 20
        g = uniform_regular_graph(3 * k, k)
        alpha_all = (1 - 1 / k) ** (k - 1)
        points = backbone_size_curve(g, [0.01, 0.2, 0.36, alpha_all, alpha_all + 1e-9, 0.5])
        fractions = {p.alpha: p.edge_fraction for p in points}
        assert fractions[0.01] == 0.0
        assert fractions[0.36] == 0.0
        assert fractions[alpha_all] == 0.0  # strict inequality drops ties
        assert fractions[alpha_all + 1e-9] == 1.0
        assert fractions[0.5] == 1.0

    def test_uniform_alpha_never_below_cutoff(self):
        # For uniform weights alpha = (1-1/k)^(k-1) >= 1/e for every k.
        for k in (2, 5, 20, 100):
            g = uniform_regular_graph(max(3 * k, k + 1), k)
            _, _, _, _, alpha = significance_arrays(g)
            assert alpha.min() > 1 / math.e - 1e-3


class TestOverlap:
    def test_identity(self):
        g = graph_of(("a", "b", 1), ("c", "d", 2))
        assert backbone_overlap(g, g) == 1.0

    def test_disjoint(self):
        a = graph_of(("a", "b", 1))
        b = graph_of(("c", "d", 1))
        assert backbone_overlap(a, b) == 0.0

    def test_partial(self):
        ref = graph_of(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1))
        bb = graph_of(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("x", "y", 1))
        assert backbone_overlap(ref, bb) == 0.75

    def test_empty_reference_is_error(self):
        empty = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            backbone_overlap(empty, graph_of(("a", "b", 1)))


class TestHeterogeneity:
    def test_equal_weights_give_one(self):
        g = graph_of(*[("h", f"x{i}", 7) for i in range(4)])
        assert local_heterogeneity(g, "h", "out") == pytest.approx(1.0)

    def test_dominant_edge_approaches_degree(self):
        g = graph_of(("h", "a", 10_000_000), ("h", "b", 1), ("h", "c", 1), ("h", "d", 1))
        assert local_heterogeneity(g, "h", "out") == pytest.approx(4.0, abs=1e-4)

    def test_hand_computed_two_edges(self):
        g = graph_of(("h", "a", 3), ("h", "b", 1))
        assert local_heterogeneity(g, "h", "out") == pytest.approx(2 * (0.75**2 + 0.25**2))
        assert local_heterogeneity(g, "h", "out") == pytest.approx(1.25)

    def test_zero_degree_is_error(self):
        g = graph_of(("a", "b", 1))
        with pytest.raises(ValueError):
            local_heterogeneity(g, "a", "in")

    def test_in_direction(self):
        g = graph_of(("a", "t", 3), ("b", "t", 1))
        assert local_heterogeneity(g, "t", "in") == pytest.approx(1.25)


def stick_breaking_upsilon(rng: np.random.Generator, k: int, n_samples: int) -> np.ndarray:
    """Null-model Upsilon samples: uniform partition of the unit interval."""
    cuts = np.sort(rng.random((n_samples, k - 1)), axis=1)
    bounds = np.hstack([np.zeros((n_samples, 1)), cuts, np.ones((n_samples, 1))])
    parts = np.diff(bounds, axis=1)
    return k * np.sum(parts**2, axis=1)


class TestNullMoments:
    def test_degree_one_forced(self):
        assert null_heterogeneity_moments(1) == (1.0, 0.0)

    @pytest.mark.parametrize("k,mu,var", [(2, 4 / 3, 4 / 45), (3, 1.5, 0.15)])
    def test_exact_small_k(self, k, mu, var):
        got_mu, got_var = null_heterogeneity_moments(k)
        assert got_mu == pytest.approx(mu, abs=1e-6)
        assert got_var == pytest.approx(var, abs=1e-6)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_against_stick_breaking_monte_carlo(self, k):
        rng = np.random.default_rng(2024 + k)
        samples = stick_breaking_upsilon(rng, k, 200_000)
        mu, var = null_heterogeneity_moments(k)
        se_mean = samples.std(ddof=1) / math.sqrt(len(samples))
        m4 = np.mean((samples - samples.mean()) ** 4)
        s2 = samples.var(ddof=1)
        se_var = math.sqrt(max(m4 - s2**2, 0.0) / len(samples))
        assert abs(samples.mean() - mu) < 4 * se_mean
        assert abs(s2 - var) < 4 * se_var

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            null_heterogeneity_moments(0)


class TestStrongDisorder:
    def test_homogeneous_graph_unflagged(self):
        g = graph_of(*[(f"a{i}", f"b{j}", 5) for i in range(3) for j in range(4)])
        report = strong_disorder_test(g, 2.0)
        assert report.flagged_fraction == 0.0

    def test_heavy_edge_flagged_at_two_sigma(self):
        edges = [("h", "big", 1000)] + [("h", f"t{i}", 1) for i in range(9)]
        g = graph_of(*edges)
        report = strong_disorder_test(g, 2.0)
        (side,) = np.flatnonzero((report.node == g.labels.index("h")) & (report.direction == "out"))
        assert report.k[side] == 10
        assert report.upsilon[side] == pytest.approx(10 * ((1000 / 1009) ** 2 + 9 * (1 / 1009) ** 2), rel=1e-9)
        assert report.flagged[side]

    def test_degree_buckets_recount_rows(self):
        rng = np.random.default_rng(4)
        edges = {(f"u{s}", f"u{d}"): int(w) for s, d, w in rng.integers(1, 40, size=(300, 3))}
        report = strong_disorder_test(graph_of(*((s, d, w) for (s, d), w in edges.items())), 1.0)
        recount: dict[int, list[int]] = {}
        for k, flagged in zip(report.k.tolist(), report.flagged.tolist()):
            cell = recount.setdefault(1 << (k.bit_length() - 1), [0, 0])
            cell[0] += 1
            cell[1] += flagged
        assert report.degree_buckets == {b: tuple(c) for b, c in sorted(recount.items())}
        assert list(report.degree_buckets) == sorted(recount)
        assert 0 < sum(f for _, f in report.degree_buckets.values()) < len(report.k)

    def test_huge_band_absorbs_everything(self):
        edges = [("h", "big", 1000)] + [("h", f"t{i}", 1) for i in range(9)]
        report = strong_disorder_test(graph_of(*edges), 1e9)
        assert report.flagged_fraction == 0.0

    def test_sides_match_per_side_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            edges = random_weighted_graph(rng, max_nodes=25) + [("n0", "n0", 3), ("p", "q", 5)]
            g = graph_of(*edges)
            a = float(rng.choice([0.5, 1.0, 2.0]))
            report = strong_disorder_test(g, a)
            expected = heterogeneity_rows(g, a)
            assert [g.labels[i] for i in report.node] == [node for node, *_ in expected]
            assert report.direction.tolist() == [direction for _, direction, *_ in expected]
            assert report.k.tolist() == [k for _, _, k, *_ in expected]
            assert report.upsilon.tolist() == pytest.approx([ups for *_, ups, _, _, _ in expected], rel=1e-12)
            assert report.null_mean.tolist() == [mu for *_, mu, _, _ in expected]
            assert report.null_std.tolist() == [sigma for *_, sigma, _ in expected]
            assert report.flagged.tolist() == [flagged for *_, flagged in expected]

    def test_bucket_floor_is_exact_at_powers_of_two(self):
        # In-degrees 1, 2^j - 1, 2^j and 2^j + 1 around each power of two.
        degrees = [1, 3, 4, 5, 63, 64, 65, 1023, 1024, 1025]
        g = graph_of(*((f"s{k}_{i}", f"t{k}", 1) for k in degrees for i in range(k)))
        report = strong_disorder_test(g, 2.0)
        in_k = report.k[report.direction == "in"].tolist()
        assert sorted(in_k) == degrees
        expected: dict[int, int] = {}
        for k in [1] * sum(degrees) + in_k:  # every source has out-degree 1
            floor = 1 << (k.bit_length() - 1)
            expected[floor] = expected.get(floor, 0) + 1
        assert {b: n for b, (n, _) in report.degree_buckets.items()} == dict(sorted(expected.items()))

    def test_empty_graph_has_no_sides(self):
        empty = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        report = strong_disorder_test(empty, 2.0)
        assert len(report.k) == 0 and report.degree_buckets == {} and report.flagged_fraction == 0.0


class TestTopology:
    def test_triangle_clustering(self):
        g = graph_of(("a", "b", 1), ("b", "c", 1), ("c", "a", 1))
        assert topology_report(g).average_clustering == pytest.approx(1.0)

    def test_star_clustering_zero(self):
        g = graph_of(*[("h", f"x{i}", 1) for i in range(5)])
        assert topology_report(g).average_clustering == 0.0

    def test_powerlaw_fit_recovers_planted_exponent(self):
        # Density ~ w^-1.5 for w >= 1 has CCDF w^-0.5; inverse sampling.
        rng = np.random.default_rng(15)
        samples = rng.random(100_000) ** -2.0
        fit = fit_powerlaw_tail(samples, fit_range=(1.0, 100.0))
        assert fit is not None
        assert fit.beta == pytest.approx(1.5, abs=0.1)

    def test_too_few_tail_points_gives_none(self):
        assert fit_powerlaw_tail(np.array([3.0, 3.0, 3.0])) is None

    def test_ccdf_well_formed(self):
        g = graph_of(("a", "b", 1), ("a", "c", 2), ("d", "c", 9))
        rep = topology_report(g)
        ks = [k for k, _ in rep.out_degree_ccdf]
        ps = [p for _, p in rep.out_degree_ccdf]
        assert ks == sorted(ks)
        assert ps[0] == 1.0
        assert all(0 < p <= 1 for p in ps)

    def test_empty_graph_error(self):
        empty = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            topology_report(empty)


class TestSignificanceRecords:
    def test_record_fields_consistent(self):
        g = graph_of(("h", "a", 98), ("h", "b", 1), ("h", "c", 1))
        p_out, _, alpha_out, alpha_in, alpha = significance_arrays(g)
        heavy = [(s, d) for s, d, _ in g.edges()].index(("h", "a"))
        assert p_out[heavy] == pytest.approx(0.98)
        assert alpha_out[heavy] == pytest.approx(0.02**2)
        assert alpha_in[heavy] == 1.0  # sink has in-degree 1
        assert alpha[heavy] == alpha_out[heavy]

    def test_arrays_match_per_edge_closed_form(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            g = graph_of(*random_weighted_graph(rng, max_nodes=25), ("n0", "n0", 4), ("p", "q", 2))
            expected = edge_significance(g)
            for got, column in zip(significance_arrays(g), range(3, 8)):
                assert got.tolist() == pytest.approx([row[column] for row in expected], rel=1e-12)


class TestEmptyGraphCurve:
    def test_size_curve_on_empty_graph_is_zero(self):
        empty = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        points = backbone_size_curve(empty, [0.05, 0.5])
        assert [(p.node_fraction, p.edge_fraction, p.weight_fraction) for p in points] == [
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        ]

    def test_unsorted_grid_rejected(self):
        g = graph_of(("a", "b", 1), ("a", "c", 2))
        with pytest.raises(ValueError, match="sorted"):
            backbone_size_curve(g, [0.5, 0.05])
