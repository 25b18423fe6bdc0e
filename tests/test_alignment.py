import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import classify_users, involvement_counts, ternary_cells
from swaynet.alignment import (
    UNALIGNED,
    classify_all,
    coverage_curve,
    involvement_profiles,
    proportions,
    ternary_histogram,
)
from swaynet.events import CONTENT_CLASSES

NAMES = (*CONTENT_CLASSES, UNALIGNED)  # label -1 names the last


def counts(*rows):
    """Involvement matrix, one (factual, misleading, uncertain) row per user."""
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def label(row, theta, min_involvement=0):
    return NAMES[classify_all(counts(row), theta, min_involvement)[0]]


def events_of(*edges):
    """User labels and (src, dst, class index) event arrays, one event per unit
    of weight, from (src, dst, weight, class) tuples."""
    users: dict[str, int] = {}
    src, dst, cls = [], [], []
    for s, d, w, c in edges:
        for u in (s, d):
            users.setdefault(u, len(users))
        src += [users[s]] * w
        dst += [users[d]] * w
        cls += [CONTENT_CLASSES.index(c)] * w
    return list(users), np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(cls, dtype=np.int8)


def factual_share(users, rows):
    """Each user's factual share, in user-table order."""
    return proportions(counts(*(rows[u] for u in users)))[:, 0]


class TestInvolvement:
    def test_received_only_single_class(self):
        users, src, dst, cls = events_of(
            ("u", "a", 4, "factual"), ("u", "b", 6, "factual"), ("x", "y", 1, "misleading"), ("x", "y", 1, "uncertain")
        )
        involvement = involvement_profiles(src, dst, cls, len(users))
        u = users.index("u")
        assert involvement[u].tolist() == [10, 0, 0]
        assert proportions(involvement)[u].tolist() == [1, 0, 0]

    def test_given_plus_received(self):
        users, src, dst, cls = events_of(
            ("z", "w", 1, "factual"), ("u", "a", 2, "misleading"), ("b", "u", 2, "misleading"), ("z", "w", 1, "uncertain")
        )
        assert involvement_profiles(src, dst, cls, len(users))[users.index("u")].tolist() == [0, 4, 0]

    def test_absent_user_absent(self):
        users, src, dst, cls = events_of(*(("a", "b", 1, c) for c in CONTENT_CLASSES))
        involvement = involvement_profiles(src, dst, cls, len(users) + 1)  # the last user, "ghost", has no event
        assert involvement[-1].tolist() == [0, 0, 0]
        assert proportions(involvement)[-1].tolist() == [0, 0, 0]

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            involvement_profiles(np.array([0]), np.array([1]), np.array([3]), 2)

    def test_self_loop_counts_twice(self):
        users, src, dst, cls = events_of(("u", "u", 3, "uncertain"), ("u", "v", 1, "factual"))
        assert involvement_profiles(src, dst, cls, len(users)).tolist() == [[1, 0, 6], [1, 0, 0]]

    def test_matches_per_event_recount(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            src, dst = rng.integers(0, n, (2, int(rng.integers(0, 80))))
            cls = rng.integers(0, 3, len(src)).astype(np.int8)
            expected = involvement_counts((s, d, CONTENT_CLASSES[c]) for s, d, c in zip(src, dst, cls))
            involvement = involvement_profiles(src, dst, cls, n)
            for u in range(n):
                row = expected.get(u, dict.fromkeys(CONTENT_CLASSES, 0))
                assert involvement[u].tolist() == [row[c] for c in CONTENT_CLASSES]


class TestClassify:
    def test_pure_profile(self):
        assert label([20, 0, 0], 0.95) == "factual"

    def test_exact_threshold_is_unaligned(self):
        # 19/20 = 0.95 is not strictly greater than 0.95.
        assert label([19, 0, 1], 0.95) == UNALIGNED

    def test_just_above_threshold_aligned(self):
        # 20/21 ~ 0.952 clears the strict bar; 18/19 ~ 0.947 does not.
        assert label([20, 0, 1], 0.95) == "factual"
        assert label([18, 0, 1], 0.95) == UNALIGNED

    def test_pure_uncertain(self):
        assert label([0, 0, 5], 0.95) == "uncertain"

    def test_zero_total_is_unaligned(self):
        # A user with no retained event has no share to exceed theta.
        assert label([0, 0, 0], 0.5) == UNALIGNED

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            classify_all(counts([1, 0, 0]), 0.3)
        with pytest.raises(ValueError):
            classify_all(counts([1, 0, 0]), 1.0)

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
        above = [c for c, n in zip(CONTENT_CLASSES, (fac, mis, unc)) if n / total > theta]
        assert len(above) <= 1
        assert label([fac, mis, unc], theta) == (above[0] if above else UNALIGNED)

    def test_min_involvement_floor(self):
        assert label([3, 0, 0], 0.95) == "factual"
        assert label([3, 0, 0], 0.95, min_involvement=4) == UNALIGNED

    def test_aligned_sets_shrink_as_theta_grows(self):
        rng = np.random.default_rng(1)
        rows = counts(*(rng.multinomial(rng.integers(1, 40), [0.6, 0.3, 0.1]) for _ in range(300)))
        previous = None
        for theta in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            current = set(np.flatnonzero(classify_all(rows, theta) >= 0).tolist())
            if previous is not None:
                assert current <= previous
            previous = current

    def test_matches_per_user_oracle(self):
        rng = np.random.default_rng(5)
        rows = counts(*(rng.multinomial(rng.integers(1, 25), rng.dirichlet([1, 1, 1])) for _ in range(400)))
        rows[:3] = [[19, 0, 1], [3, 2, 0], [1, 1, 0]]  # shares of exactly 0.95, 0.6 and 0.5
        by_user = {u: dict(zip(CONTENT_CLASSES, row)) for u, row in enumerate(rows.tolist())}
        for theta in (0.5, 0.6, 0.95):
            for floor in (0, 3):
                expected = classify_users(by_user, theta, floor)
                got = classify_all(rows, theta, floor)
                assert [NAMES[c] for c in got.tolist()] == [expected[u] for u in range(len(rows))]


class TestCoverage:
    def test_pure_factual_population_full_coverage(self):
        users, src, dst, _ = events_of(("u1", "u2", 5, "factual"), ("u2", "u3", 5, "factual"))
        props = factual_share(users, {u: [10, 0, 0] for u in users})
        curve = coverage_curve(props, src, dst, [0.5, 0.7, 0.9])
        assert all(frac == 1.0 for _, frac in curve)

    def test_unreachable_threshold_zero_coverage(self):
        users, src, dst, _ = events_of(("u1", "u2", 5, "factual"))
        props = factual_share(users, {"u1": [3, 0, 2], "u2": [3, 0, 2]})
        assert coverage_curve(props, src, dst, [0.7]) == [(0.7, 0.0)]

    def test_brute_force_recount_five_users(self):
        # Mixed fixture; oracle recounts qualifying retweet weight per theta.
        edges = [("a", "b", 4), ("b", "c", 2), ("c", "d", 1), ("e", "a", 3)]
        users, src, dst, _ = events_of(*((s, d, w, "factual") for s, d, w in edges))
        rows = {"a": [9, 0, 1], "b": [6, 4, 0], "c": [1, 0, 9], "d": [5, 5, 0], "e": [10, 0, 0]}
        grid = [0.5, 0.55, 0.8, 0.85, 0.9]
        curve = coverage_curve(factual_share(users, rows), src, dst, grid)
        total = sum(w for _, _, w in edges)
        for theta, frac in zip(grid, [f for _, f in curve]):
            aligned = {u for u, row in rows.items() if row[0] / sum(row) > theta}
            covered = sum(w for s, d, w in edges if s in aligned or d in aligned)
            assert frac == pytest.approx(covered / total)

    def test_non_increasing(self):
        rng = np.random.default_rng(2)
        users = [f"u{i}" for i in range(20)]
        rows = {u: rng.multinomial(20, [0.7, 0.2, 0.1]).tolist() for u in users}
        edges = [(users[rng.integers(20)], users[rng.integers(20)], int(rng.integers(1, 5))) for _ in range(40)]
        src = np.repeat([users.index(s) for s, _, _ in edges], [w for *_, w in edges])
        dst = np.repeat([users.index(d) for _, d, _ in edges], [w for *_, w in edges])
        curve = coverage_curve(factual_share(users, rows), src, dst, [0.5, 0.6, 0.7, 0.8, 0.9])
        fractions = [f for _, f in curve]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_zero_retweet_class_is_error(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            coverage_curve(np.zeros(0), empty, empty, [0.5])


class TestTernary:
    def test_pure_corner(self):
        assert ternary_histogram(counts([7, 0, 0]), 10) == {(9, 0): 1}

    def test_center_cell_odd_bins(self):
        assert ternary_histogram(counts([1, 1, 1]), 3) == {(1, 1): 1}

    def test_conservation(self):
        rng = np.random.default_rng(3)
        rows = counts(*(rng.multinomial(rng.integers(1, 30), [1 / 3, 1 / 3, 1 / 3]) for _ in range(100)))
        hist = ternary_histogram(rows, 7)
        assert sum(hist.values()) == 100
        assert all(i >= 0 and j >= 0 and i + j <= 6 for i, j in hist)

    def test_boundary_profiles_stay_in_simplex(self):
        hist = ternary_histogram(counts([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]), 2)
        assert sum(hist.values()) == 4
        assert all(i + j <= 1 for i, j in hist)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            ternary_histogram(counts(), 0)

    def test_row_without_involvement_rejected(self):
        with pytest.raises(ValueError):
            ternary_histogram(counts([1, 0, 0], [0, 0, 0]), 3)

    def test_matches_per_user_clamp_loop(self):
        rng = np.random.default_rng(6)
        rows = counts(*(rng.multinomial(rng.integers(1, 12), rng.dirichlet([0.5, 0.5, 0.5])) for _ in range(300)))
        by_user = [dict(zip(CONTENT_CLASSES, row)) for row in rows.tolist()]
        for bins in range(1, 10):
            assert ternary_histogram(rows, bins) == ternary_cells(by_user, bins)


class TestAlignedUsers:
    def test_selection(self):
        labels = classify_all(counts([10, 0, 0], [0, 10, 0]), 0.9)
        assert np.flatnonzero(labels == CONTENT_CLASSES.index("factual")).tolist() == [0]
        assert np.flatnonzero(labels == CONTENT_CLASSES.index("misleading")).tolist() == [1]
