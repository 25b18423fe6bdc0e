import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import digraph_of
from swaynet.alignment import (
    InvolvementProfile,
    UNALIGNED,
    aligned_users,
    classify_alignment,
    classify_all,
    coverage_curve,
    involvement_profiles,
    ternary_histogram,
)
from swaynet.graph import WeightedDigraph


def graph_of(*edges):
    return digraph_of(list(edges))


def profile(user, fac=0, mis=0, unc=0):
    counts = {"factual": fac, "misleading": mis, "uncertain": unc}
    counts = {k: v for k, v in counts.items() if v}
    return InvolvementProfile(user, counts, fac + mis + unc)


class TestInvolvement:
    def test_received_only_single_class(self):
        graphs = {
            "factual": graph_of(("u", "a", 4), ("u", "b", 6)),
            "misleading": graph_of(("x", "y", 1)),
            "uncertain": graph_of(("x", "y", 1)),
        }
        p = involvement_profiles(graphs)["u"]
        assert p.counts == {"factual": 10}
        assert (p.proportion("factual"), p.proportion("misleading"), p.proportion("uncertain")) == (1, 0, 0)

    def test_given_plus_received(self):
        graphs = {
            "factual": graph_of(("z", "w", 1)),
            "misleading": graph_of(("u", "a", 2), ("b", "u", 2)),
            "uncertain": graph_of(("z", "w", 1)),
        }
        assert involvement_profiles(graphs)["u"].counts == {"misleading": 4}

    def test_absent_user_absent(self):
        graphs = {cls: graph_of(("a", "b", 1)) for cls in ("factual", "misleading", "uncertain")}
        assert "ghost" not in involvement_profiles(graphs)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            involvement_profiles({"bogus": graph_of(("a", "b", 1))})


class TestClassify:
    def test_pure_profile(self):
        assert classify_alignment(profile("u", fac=20), 0.95).label == "factual"

    def test_exact_threshold_is_unaligned(self):
        # 19/20 = 0.95 is not strictly greater than 0.95.
        lab = classify_alignment(profile("u", fac=19, unc=1), 0.95)
        assert lab.label == UNALIGNED

    def test_just_above_threshold_aligned(self):
        # 20/21 ~ 0.952 clears the strict bar; 18/19 ~ 0.947 does not.
        assert classify_alignment(profile("u", fac=20, unc=1), 0.95).label == "factual"
        assert classify_alignment(profile("u", fac=18, unc=1), 0.95).label == UNALIGNED

    def test_pure_uncertain(self):
        assert classify_alignment(profile("u", unc=5), 0.95).label == "uncertain"

    def test_zero_total_is_error(self):
        with pytest.raises(ValueError):
            classify_alignment(InvolvementProfile("u", {}, 0), 0.95)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            classify_alignment(profile("u", fac=1), 0.3)
        with pytest.raises(ValueError):
            classify_alignment(profile("u", fac=1), 1.0)

    @given(
        fac=st.integers(0, 50),
        mis=st.integers(0, 50),
        unc=st.integers(0, 50),
        theta=st.floats(0.5, 0.99),
    )
    @settings(max_examples=200)
    def test_at_most_one_class_qualifies(self, fac, mis, unc, theta):
        total = fac + mis + unc
        if total == 0:
            return
        p = profile("u", fac=fac, mis=mis, unc=unc)
        above = [c for c in ("factual", "misleading", "uncertain") if p.proportion(c) > theta]
        assert len(above) <= 1
        label = classify_alignment(p, theta).label
        assert label == (above[0] if above else UNALIGNED)

    def test_min_involvement_floor(self):
        profiles = {"u": profile("u", fac=3)}
        assert classify_all(profiles, 0.95)["u"].label == "factual"
        assert classify_all(profiles, 0.95, min_involvement=4)["u"].label == UNALIGNED

    def test_aligned_sets_shrink_as_theta_grows(self):
        rng = np.random.default_rng(1)
        profiles = {}
        for i in range(300):
            counts = rng.multinomial(rng.integers(1, 40), [0.6, 0.3, 0.1])
            profiles[f"u{i}"] = profile(f"u{i}", *counts)
        previous = None
        for theta in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            labels = classify_all(profiles, theta)
            current = {u for u, l in labels.items() if l.label != UNALIGNED}
            if previous is not None:
                assert current <= previous
            previous = current


class TestCoverage:
    def test_pure_factual_population_full_coverage(self):
        g = graph_of(("u1", "u2", 5), ("u2", "u3", 5))
        profiles = {u: profile(u, fac=10) for u in ("u1", "u2", "u3")}
        curve = coverage_curve(profiles, g, "factual", [0.5, 0.7, 0.9])
        assert all(frac == 1.0 for _, frac in curve)

    def test_unreachable_threshold_zero_coverage(self):
        g = graph_of(("u1", "u2", 5))
        profiles = {"u1": profile("u1", fac=3, unc=2), "u2": profile("u2", fac=3, unc=2)}
        curve = coverage_curve(profiles, g, "factual", [0.7])
        assert curve == [(0.7, 0.0)]

    def test_brute_force_recount_five_users(self):
        # Mixed fixture; oracle recounts qualifying retweet weight per theta.
        g = graph_of(("a", "b", 4), ("b", "c", 2), ("c", "d", 1), ("e", "a", 3))
        profiles = {
            "a": profile("a", fac=9, unc=1),
            "b": profile("b", fac=6, mis=4),
            "c": profile("c", fac=1, unc=9),
            "d": profile("d", fac=5, mis=5),
            "e": profile("e", fac=10),
        }
        grid = [0.5, 0.55, 0.8, 0.85, 0.9]
        curve = coverage_curve(profiles, g, "factual", grid)
        total = sum(w for _, _, w in g.edges())
        for theta, frac in zip(grid, [f for _, f in curve]):
            aligned = {u for u, p in profiles.items() if p.proportion("factual") > theta}
            covered = sum(w for s, d, w in g.edges() if s in aligned or d in aligned)
            assert frac == pytest.approx(covered / total)

    def test_non_increasing(self):
        rng = np.random.default_rng(2)
        users = [f"u{i}" for i in range(20)]
        profiles = {}
        for u in users:
            counts = rng.multinomial(20, [0.7, 0.2, 0.1])
            profiles[u] = profile(u, *counts)
        edges = [(users[rng.integers(20)], users[rng.integers(20)], int(rng.integers(1, 5))) for _ in range(40)]
        g = digraph_of(edges)
        curve = coverage_curve(profiles, g, "factual", [0.5, 0.6, 0.7, 0.8, 0.9])
        fractions = [f for _, f in curve]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_zero_retweet_class_is_error(self):
        empty = WeightedDigraph([], np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            coverage_curve({}, empty, "factual", [0.5])


class TestTernary:
    def test_pure_corner(self):
        hist = ternary_histogram([profile("u", fac=7)], 10)
        assert hist == {(9, 0): 1}

    def test_center_cell_odd_bins(self):
        hist = ternary_histogram([profile("u", fac=1, mis=1, unc=1)], 3)
        assert hist == {(1, 1): 1}

    def test_conservation(self):
        rng = np.random.default_rng(3)
        profiles = []
        for i in range(100):
            counts = rng.multinomial(rng.integers(1, 30), [1 / 3, 1 / 3, 1 / 3])
            profiles.append(profile(f"u{i}", *counts))
        hist = ternary_histogram(profiles, 7)
        assert sum(hist.values()) == 100
        assert all(i >= 0 and j >= 0 and i + j <= 6 for i, j in hist)

    def test_boundary_profiles_stay_in_simplex(self):
        tricky = [
            profile("a", fac=1),
            profile("b", mis=1),
            profile("c", unc=1),
            profile("d", fac=1, mis=1),
        ]
        hist = ternary_histogram(tricky, 2)
        assert sum(hist.values()) == 4
        assert all(i + j <= 1 for i, j in hist)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            ternary_histogram([], 0)


class TestAlignedUsers:
    def test_selection(self):
        labels = classify_all({"u": profile("u", fac=10), "v": profile("v", mis=10)}, 0.9)
        assert aligned_users(labels, "factual") == {"u"}
        assert aligned_users(labels, "misleading") == {"v"}
