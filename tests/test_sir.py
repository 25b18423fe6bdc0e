import math

import numpy as np
import pytest

from swaynet import rng as rngmod
from oracles import (
    FollowerLog,
    RetweetEvent,
    acceptance_losses_by_axis_sum,
    cascade_populations_by_label,
    columns_of,
    digraph_of,
    edge_set,
    first_at_or_after_by_keys,
    follower_snapshot,
    follower_table,
    label_ids,
    label_mask,
    simulate_growth_rate,
    window_loss,
)
from swaynet.growth import TimeWindow
from swaynet.sir import (
    CascadeSetup,
    FitConfig,
    build_cascade_setup,
    cascade_populations,
    final_size,
    fit_parameters,
    nelder_mead_1d,
    recovered_follower_sums,
    sample_rho,
    swayable_recovered_count,
    temporal_network,
    _precompute_window,
    _window_acceptance,
    _WindowCache,
)

DAY = 86_400


def ev(ts, src, dst, cls="factual"):
    cat = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "NA"}[cls]
    return RetweetEvent(ts, src, dst, cat, cls, 0, 0, False, False, False, False)


def graph_of(*edges):
    return digraph_of(edges)


def populations(g, aligned_class, aligned_any):
    """cascade_populations on label sets, its user ids read back as labels."""
    v_a, v_sw = cascade_populations(g, label_mask(g.users, aligned_class), label_mask(g.users, aligned_any))
    return {g.users[i] for i in v_a}, {g.users[i] for i in v_sw}


# -- independent oracle -----------------------------------------------------------


def bisect_final_size(s0: float, r0: float, lo: float = 1e-9, hi: float = 1.0, iters: int = 200) -> float:
    """Plain bisection on (lo, hi]; residual sign decides the half."""

    def f(r):
        return 1.0 - r - s0 * math.exp(-r * r0)

    if f(lo) < 0:
        return 1.0 - s0  # no epidemic beyond the seeds
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTemporalNetwork:
    def test_one_month_lookback_only(self):
        events = [ev(5 * DAY, "a", "b"), ev(45 * DAY, "c", "d"), ev(65 * DAY, "e", "f")]
        window = TimeWindow(60 * DAY, 90 * DAY)
        g = temporal_network(columns_of(events), window, 1, "factual")
        assert edge_set(g) == {("c", "d")}

    def test_longer_lookback_nests_shorter(self):
        events = [ev(t * DAY, f"u{t}", f"v{t}") for t in range(0, 100, 7)]
        window = TimeWindow(90 * DAY, 120 * DAY)
        short = edge_set(temporal_network(columns_of(events), window, 1, "factual"))
        long = edge_set(temporal_network(columns_of(events), window, 3, "factual"))
        assert short <= long

    def test_window_itself_excluded(self):
        events = [ev(61 * DAY, "a", "b")]
        window = TimeWindow(60 * DAY, 90 * DAY)
        assert temporal_network(columns_of(events), window, 1, "factual").n_edges == 0

    def test_class_time_slice_matches_event_mask_on_every_fit_window(self):
        from swaynet.cli import PipelineConfig, _fit_windows
        from swaynet.synth import SynthConfig, synthesize

        config = SynthConfig(
            start=0,
            end=150 * DAY,
            aligned_users={"factual": 6, "misleading": 6, "uncertain": 6},
            swayable_users=40,
            events_per_class={"factual": 900, "misleading": 900, "uncertain": 900},
        )
        columns = synthesize(config, 5).columns()
        for lookback in (1, 2):
            windows = _fit_windows(PipelineConfig(lookback=lookback), columns)
            assert len(windows) >= 3
            for window in windows:
                start = window.start - lookback * 30 * DAY
                for cls in ("factual", "misleading", "uncertain"):
                    got = temporal_network(columns, window, lookback, cls)
                    want = columns.build_graph(columns.event_mask((start, window.start), cls))
                    assert got.n_edges > 0
                    assert np.array_equal(got.node_user, want.node_user)
                    assert list(got.edges()) == list(want.edges())

    def test_lookback_must_be_positive(self):
        with pytest.raises(ValueError):
            temporal_network(columns_of([]), TimeWindow(0, 30 * DAY), 0, "factual")


class TestCascadePopulations:
    def test_chain_reaches_downstream(self):
        g = graph_of(("A", "s1", 1), ("s1", "s2", 1))
        v_a, v_sw = populations(g, {"A"}, {"A"})
        assert v_a == {"A"}
        assert v_sw == {"s1", "s2"}

    def test_aligned_without_swayable_path_excluded(self):
        g = graph_of(("A", "B", 1), ("C", "s1", 1))
        v_a, v_sw = populations(g, {"A", "B", "C"}, {"A", "B", "C"})
        assert v_a == {"C"}
        assert v_sw == {"s1"}

    def test_upstream_swayable_excluded(self):
        g = graph_of(("s0", "A", 1), ("A", "s1", 1))
        v_a, v_sw = populations(g, {"A"}, {"A"})
        assert v_sw == {"s1"}
        assert "s0" not in v_sw

    def test_disjoint_populations(self):
        g = graph_of(("A", "s1", 1), ("s1", "B", 1))
        v_a, v_sw = populations(g, {"A", "B"}, {"A", "B"})
        assert v_a & v_sw == set()

    def test_empty_when_no_seeds_present(self):
        g = graph_of(("x", "y", 1))
        assert populations(g, {"zzz"}, {"zzz"}) == (set(), set())

    def test_matches_set_oracle_on_random_graphs(self):
        def reach(adj, start):
            seen, todo = {start}, [start]
            while todo:
                for w in adj.get(todo.pop(), ()):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            return seen

        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            labels = [f"u{i}" for i in range(n)]
            pairs = {(labels[s], labels[d]) for s, d in rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))}
            g = graph_of(*((s, d, 1) for s, d in pairs))
            adj = {}
            for s, d in pairs:
                adj.setdefault(s, set()).add(d)
            pool = labels + ["ghost"]
            aligned_class = {u for u in pool if rng.random() < 0.2}
            aligned_any = aligned_class | {u for u in pool if rng.random() < 0.2}
            seeds = aligned_class & set(g.labels)
            sw = set().union(*(reach(adj, u) for u in seeds)) - aligned_any - seeds
            a = {u for u in seeds if reach(adj, u) & sw}
            expected = (a, sw) if seeds and sw else (set(), set())
            assert populations(g, aligned_class, aligned_any) == expected

    def test_matches_label_oracle_on_window_graphs(self):
        # Windows of a shared user table: some aligned users are absent from
        # the window, some labels are unknown to the table, and the graphs
        # carry self-loops and reciprocal edges.
        rng = np.random.default_rng(23)
        absent = nonempty = 0
        for _ in range(40):
            n = int(rng.integers(3, 25))
            users = [f"u{i}" for i in range(n)]
            events = [ev(int(t), users[s], users[d]) for t, s, d in rng.integers(0, n, size=(3 * n, 3)) * [DAY, 1, 1]]
            events += [ev(int(rng.integers(0, n)) * DAY, u, u) for u in users[:2]]
            columns = columns_of(events)
            window = TimeWindow(int(rng.integers(1, n)) * DAY, (n + 30) * DAY)
            g = temporal_network(columns, window, 1, "factual")
            pool = users + ["ghost"]
            aligned_class = {u for u in pool if rng.random() < 0.25}
            aligned_any = aligned_class | {u for u in pool if rng.random() < 0.2}
            expected = cascade_populations_by_label(g, aligned_class, aligned_any)
            assert populations(g, aligned_class, aligned_any) == expected
            absent += bool(aligned_class & set(columns.users) - set(g.labels))
            nonempty += bool(expected[1])
        assert absent >= 10 and nonempty >= 10, (absent, nonempty)


class TestFinalSize:
    def test_r0_zero_reduces_exactly(self):
        assert final_size(0.9, 0.0) == 1.0 - 0.9
        assert final_size(0.25, 0.0) == 1.0 - 0.25

    def test_classic_full_susceptible_point(self):
        # Near-total susceptibility at R0 = 2.
        assert final_size(1 - 1e-12, 2.0) == pytest.approx(0.7968, abs=5e-4)
        assert final_size(1 - 1e-12, 2.0) == pytest.approx(bisect_final_size(1 - 1e-12, 2.0), abs=1e-10)

    def test_s0_099_point(self):
        assert final_size(0.99, 2.0) == pytest.approx(0.8002, abs=5e-4)
        assert final_size(0.99, 2.0) == pytest.approx(bisect_final_size(0.99, 2.0), abs=1e-10)

    def test_agrees_with_bisection_across_grid(self):
        for s0 in np.arange(0.1, 1.0, 0.05):
            for r0 in np.arange(0.0, 5.01, 0.25):
                root = final_size(float(s0), float(r0))
                oracle = bisect_final_size(float(s0), float(r0))
                assert abs(root - oracle) < 1e-8, (s0, r0)

    def test_monotone_in_r0(self):
        for s0 in (0.2, 0.5, 0.9, 0.99):
            values = [final_size(s0, r0) for r0 in np.arange(0.0, 5.01, 0.25)]
            assert values[0] == 1.0 - s0
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_residual_below_tolerance(self):
        for s0, r0 in ((0.3, 1.3), (0.85, 3.7), (0.99, 0.4)):
            r = final_size(s0, r0)
            assert abs(1 - r - s0 * math.exp(-r * r0)) < 1e-12

    def test_degenerate_s0_one_subcritical(self):
        assert final_size(1.0, 0.5) == 0.0
        assert final_size(1.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            final_size(1.5, 1.0)
        with pytest.raises(ValueError):
            final_size(0.5, -0.1)


class TestSwayableRecoveredCount:
    def test_direct_substitution(self):
        assert swayable_recovered_count(100, 0.5, 0.1) == 40

    def test_no_spread_beyond_seeds(self):
        assert swayable_recovered_count(100, 0.1, 0.1) == 0

    def test_second_substitution(self):
        assert swayable_recovered_count(250, 0.36, 0.2) == 40

    def test_clamped_to_pool(self):
        # N=10 with I0=0.2 leaves 8 swayable users at most.
        assert swayable_recovered_count(10, 1.0, 0.2) == 8

    def test_tiny_negative_clamps_to_zero(self):
        assert swayable_recovered_count(100, 0.1 - 1e-12, 0.1) == 0

    def test_round_half_even(self):
        # 0.5 exactly between: banker's rounding keeps determinism unbiased.
        assert swayable_recovered_count(10, 0.35, 0.1) == round(2.5)


def make_setup(f_a=(100, 400), f_sw=(10, 20, 30, 40, 900)):
    return CascadeSetup(f_a=np.array(f_a, dtype=np.int64), f_sw=np.array(f_sw, dtype=np.int64))


class TestSimulateGrowthRate:
    """The sampler simulate and fit share: rho times delta is the simulated rate."""

    def test_full_sample_deterministic(self):
        # All swayable users recovered: rho = sum(f_sw) / sum(f_a).
        setup = make_setup(f_a=(500,), f_sw=(100, 200, 300, 400))
        rho = sample_rho(setup, [50.0], 3, 0, 0, "factual")  # huge R0 -> everyone
        assert rho.shape == (1, 3)
        assert np.all(rho == 1000 / 500)

    def test_zero_count_gives_zero(self):
        assert np.all(sample_rho(make_setup(), [0.0], 3, 0, 0, "factual") == 0.0)

    def test_zero_aligned_mass_is_error(self):
        setup = make_setup(f_a=(0, 0))
        with pytest.raises(ValueError, match="no aligned follower mass"):
            sample_rho(setup, [1.0], 1, 0, 0, "factual")

    def test_expectation_matches_uniform_sampling(self):
        # E[r_hat] = delta * (m / n_sw) * sum(f_sw) / sum(f_a) for a fixed
        # recovered count m, by symmetry of sampling without replacement.
        setup = make_setup(f_a=(1000,), f_sw=tuple(int(x) for x in np.geomspace(10, 5000, 10)))
        r0, delta = 2.0, 0.3
        r_inf = final_size(setup.s0, r0)
        m = swayable_recovered_count(setup.n, r_inf, setup.i0)
        assert 0 < m < 10
        draws = delta * sample_rho(setup, [r0], 10_000, 5, 0, "mc")[0]
        expected = delta * (m / 10) * setup.f_sw.sum() / setup.f_a.sum()
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - expected) < 3 * se


class TestRecoveredFollowerSums:
    """Prefix sums of one permutation against the hypergeometric law.

    Followers are distinct powers of two, so each sampled sum spells out
    the sampled subset as a bitmask.
    """

    N_POOL = 7
    REPS = 20_000

    @pytest.fixture(scope="class")
    def masks(self):
        f_sw = 2 ** np.arange(self.N_POOL, dtype=np.int64)
        counts = np.arange(self.N_POOL + 1)
        return np.array(
            [recovered_follower_sums(f_sw, counts, rngmod.stream(41, "hyper", rep)) for rep in range(self.REPS)]
        )

    @staticmethod
    def within_binomial_bounds(hits, p, reps):
        sigma = math.sqrt(p * (1 - p) / reps)
        return abs(hits / reps - p) <= 4.5 * sigma + 1e-12

    def test_element_inclusion_frequency(self, masks):
        n = self.N_POOL
        for m in range(n + 1):
            for i in range(n):
                hits = int(((masks[:, m] >> i) & 1).sum())
                assert self.within_binomial_bounds(hits, m / n, self.REPS), (m, i, hits)

    def test_pair_inclusion_frequency(self, masks):
        n = self.N_POOL
        for m in range(n + 1):
            p = m * (m - 1) / (n * (n - 1))
            for i in range(n):
                for j in range(i + 1, n):
                    pair = (1 << i) | (1 << j)
                    hits = int(((masks[:, m] & pair) == pair).sum())
                    assert self.within_binomial_bounds(hits, p, self.REPS), (m, i, j, hits)

    def test_samples_nest_as_count_grows(self, masks):
        for m in range(self.N_POOL + 1):
            for m_big in range(m + 1, self.N_POOL + 1):
                assert np.all(masks[:, m] & masks[:, m_big] == masks[:, m])

    def test_subset_sizes_match_counts(self, masks):
        popcount = np.array([[bin(int(v)).count("1") for v in row] for row in masks[:50]])
        assert np.all(popcount == np.arange(self.N_POOL + 1))

    def test_rho_non_decreasing_along_grid(self):
        setup = make_setup(f_a=(100,), f_sw=tuple(2**i for i in range(self.N_POOL)))
        rho = sample_rho(setup, FitConfig().r0_grid(), 2_000, 41, 0, "factual")
        assert np.all(np.diff(rho, axis=0) >= 0)
        assert rho[0].max() == 0.0 and rho[-1].min() > 0.0


class TestWindowAcceptance:
    def test_partition_matches_full_lexsort_through_ties(self):
        gen = rngmod.stream(8, "ties")
        n_grid, runs = 21, 16
        # Losses take only a handful of distinct values, so every cut of
        # the sorted order lands inside a tie group.
        rho = gen.integers(0, 4, size=(n_grid, runs, 2)) / 2.0
        cache = _WindowCache(window_start=0, rho=rho, empirical=np.array([0.5, 1.0]))
        grid_idx, rep_idx = np.divmod(np.arange(n_grid * runs), runs)
        cuts_in_ties = 0
        for tolerance_pct in (0.01, 0.05, 0.1, 0.13, 0.25, 0.5, 0.77, 1.0):
            q, accepted = _window_acceptance(cache, 1.0, tolerance_pct)
            k = math.ceil(tolerance_pct * len(q))
            oracle = np.lexsort((rep_idx, grid_idx, q))[:k]
            assert np.array_equal(accepted, oracle), tolerance_pct
            ordered = np.sort(q)
            cuts_in_ties += int(k < len(q) and ordered[k - 1] == ordered[k])
        assert cuts_in_ties >= 5

    @pytest.mark.parametrize("n_classes", (1, 2, 3))
    def test_losses_equal_the_class_axis_sum(self, n_classes):
        gen = rngmod.stream(9, "losses")
        for runs in (1, 16):
            shape = (7, runs, n_classes)
            for rho, empirical in (
                (gen.random(shape), gen.random(n_classes)),
                (np.zeros(shape), np.zeros(n_classes)),
                (gen.integers(0, 3, size=shape) / 2.0, gen.integers(0, 3, size=n_classes) / 4.0),  # ties
            ):
                cache = _WindowCache(0, rho, empirical)
                for delta in (0.0, 0.37, 1.0):
                    q, _ = _window_acceptance(cache, delta, 0.2)
                    assert np.array_equal(q, acceptance_losses_by_axis_sum(rho, empirical, delta))


class TestWindowLoss:
    def test_perfect_match(self):
        assert window_loss({"factual": 0.3}, {"factual": 0.3}) == 0.0

    def test_single_class(self):
        assert window_loss({"factual": 0.3}, {"factual": 0.1}) == pytest.approx(0.04)

    def test_two_classes(self):
        r_hat = {"factual": 0.2, "misleading": 0.4}
        r = {"factual": 0.1, "misleading": 0.2}
        assert window_loss(r_hat, r) == pytest.approx(0.01 + 0.04)

    def test_mismatched_classes_error(self):
        with pytest.raises(ValueError):
            window_loss({"factual": 0.1}, {"factual": 0.1, "misleading": 0.2})

    def test_acceptance_losses_are_window_losses(self):
        # Pair (grid point g, replicate r) sits at flat index g * runs + r.
        rng = np.random.default_rng(8)
        classes = ("factual", "misleading", "uncertain")
        grid, runs = np.arange(4) * 0.5, 5
        rho = rng.random((len(grid), runs, len(classes)))
        empirical = {"factual": 0.1, "misleading": 0.05, "uncertain": 0.2}
        cache = _WindowCache(0, rho, np.array([empirical[c] for c in classes]))
        for delta in (0.0, 0.3, 1.0):
            q, _ = _window_acceptance(cache, delta, 0.2)
            assert len(q) == len(grid) * runs
            for g in range(len(grid)):
                for r in range(runs):
                    r_hat = {c: delta * rho[g, r, i] for i, c in enumerate(classes)}
                    assert q[g * runs + r] == pytest.approx(window_loss(r_hat, empirical), rel=1e-12, abs=1e-15)


def snapshot_of(table, user, before):
    counts, fallback = table.at(table.ids([user]), before)
    return int(counts[0]), bool(fallback[0])


class TestFollowerSnapshots:
    def test_most_recent_before_window(self):
        log = FollowerLog("u", ((10, 100), (20, 120), (30, 140)))
        snaps = follower_table({"u": log})
        assert snapshot_of(snaps, "u", 25) == (120, False)
        assert follower_snapshot(log, 25) == (120, False)

    def test_fallback_to_earliest(self):
        log = FollowerLog("u", ((50, 77),))
        snaps = follower_table({"u": log})
        assert snapshot_of(snaps, "u", 25) == (77, True)
        assert follower_snapshot(log, 25) == (77, True)

    def test_unknown_user(self):
        snaps = follower_table({})
        assert snapshot_of(snaps, "ghost", 10) == (0, True)

    def test_segment_bisection_matches_keys_oracle(self):
        # Users with empty segments, times shared across users, and every
        # t before, at and after each observation.
        rng = np.random.default_rng(31)
        for _ in range(30):
            logs = {}
            for u in range(int(rng.integers(1, 12))):
                times = np.unique(rng.integers(0, 40, size=int(rng.integers(0, 9))))
                logs[f"u{u}"] = FollowerLog(f"u{u}", tuple((int(t), int(rng.integers(0, 500))) for t in times))
            table = follower_table(logs)
            ids = np.arange(len(table.users))
            for t in sorted({-1, 41} | {int(x) + d for x in table.ts for d in (-1, 0, 1)}):
                assert table.first_at_or_after(ids, t).tolist() == first_at_or_after_by_keys(table, ids, t).tolist()
                counts, fallback = table.at(ids, t)
                expected = [follower_snapshot(logs[u], t) for u in table.users]
                assert list(zip(counts.tolist(), fallback.tolist())) == expected


class TestBuildCascadeSetup:
    def test_populations_and_snapshots(self):
        g = graph_of(("A", "s1", 2), ("s1", "s2", 1))
        logs = {
            "A": FollowerLog("A", ((0, 500), (10 * DAY, 600))),
            "s1": FollowerLog("s1", ((0, 50),)),
            "s2": FollowerLog("s2", ((40 * DAY, 70),)),  # only post-window: fallback
        }
        window = TimeWindow(30 * DAY, 60 * DAY)
        table = follower_table(logs)
        assert table.users == list(g.users)
        setup = build_cascade_setup(g, window, label_mask(g.users, {"A"}), label_mask(g.users, {"A"}), table)
        assert setup.f_a.tolist() == [600]
        assert setup.f_sw.tolist() == [50, 70]  # s1, s2: label order
        assert setup.sum_f_a == 600
        assert setup.n_fallback == 1  # s2
        assert setup.s0 == pytest.approx(2 / 3)
        assert setup.i0 == pytest.approx(1 / 3)
        assert setup.simulable


class TestNelderMead1d:
    def test_quadratic_minimum(self):
        x, fx, _ = nelder_mead_1d(lambda x: (x - 0.3) ** 2, (0.05, 0.9), (0.0, 1.0))
        assert x == pytest.approx(0.3, abs=1e-3)

    def test_respects_bounds(self):
        x, _, _ = nelder_mead_1d(lambda x: (x - 2.0) ** 2, (0.1, 0.5), (0.0, 1.0))
        assert x == pytest.approx(1.0, abs=1e-3)


# Sawtooth for planted-recovery tests. The top-of-grid tooth pins delta:
# once the cascade saturates the swayable pool a smaller delta cannot
# compensate via R0. Mid-range teeth sit where the final-size curve is
# steep, so their accepted R0 concentrates near the planted value.
PLANT_SAWTOOTH = (0.6, 1.15, 1.7, 2.25, 2.8, 5.0)


def planted_fit_problem(seed=77, n_windows=6, delta_star=0.08, n_a=20, n_sw=150):
    """Empirical rates produced by the generator itself with known R0*(t)."""
    gen = rngmod.stream(seed, "setup")
    r0_star = [PLANT_SAWTOOTH[w % len(PLANT_SAWTOOTH)] for w in range(n_windows)]
    setups = {}
    empirical = {}
    classes = ("factual", "misleading", "uncertain")
    for w in range(n_windows):
        start = w * 15 * DAY + 60 * DAY
        per_class = {}
        rates = {}
        for ci, cls in enumerate(classes):
            f_a = gen.integers(100, 400, n_a)
            f_sw = gen.integers(100, 400, n_sw + 30 * ci)
            setup = CascadeSetup(f_a=np.asarray(f_a, dtype=np.int64), f_sw=np.asarray(f_sw, dtype=np.int64))
            per_class[cls] = setup
            rates[cls] = simulate_growth_rate(setup, r0_star[w], delta_star, rngmod.stream(seed, "emp", w, cls))
        setups[start] = per_class
        empirical[start] = rates
    return setups, empirical, r0_star, delta_star


class TestFitParameters:
    def test_default_grid_and_replication(self):
        config = FitConfig()
        grid = config.r0_grid()
        assert (grid[0], grid[-1]) == (0.0, 5.0)
        assert len(grid) == 101
        assert np.allclose(np.diff(grid), 0.05)
        assert config.runs_per_point == 100
        assert config.tolerance_pct == 0.10

    @pytest.mark.parametrize(
        "r0_min, r0_max, r0_step, expected",
        [
            (0.0, 1.0, 0.6, [0.0, 0.6]),
            (0.5, 2.0, 0.4, [0.5, 0.9, 1.3, 1.7]),
            (0.0, 0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),
            (0.1, 0.7, 0.2, [0.1, 0.3, 0.5, 0.7]),
            (1.0, 1.0, 0.5, [1.0]),
        ],
    )
    def test_grid_never_passes_r0_max(self, r0_min, r0_max, r0_step, expected):
        grid = FitConfig(r0_min=r0_min, r0_max=r0_max, r0_step=r0_step).r0_grid()
        assert grid.max() <= r0_max
        assert grid == pytest.approx(expected, abs=1e-12)

    def test_acceptance_size_and_determinism(self):
        setups, empirical, _, _ = planted_fit_problem()
        config = FitConfig(runs_per_point=10, tolerance_pct=0.10, seed=3)
        result_a = fit_parameters(setups, empirical, config)
        result_b = fit_parameters(setups, empirical, config)
        n_pairs = len(config.r0_grid()) * config.runs_per_point
        for wf in result_a.windows:
            assert len(wf.accepted_r0) == math.ceil(0.10 * n_pairs)
        assert result_a.delta == result_b.delta
        for wa, wb in zip(result_a.windows, result_b.windows):
            assert np.array_equal(wa.accepted_r0, wb.accepted_r0)
            assert np.array_equal(wa.accepted_loss, wb.accepted_loss)

    def test_tolerance_one_accepts_everything(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=2)
        config = FitConfig(runs_per_point=5, tolerance_pct=1.0, seed=3)
        result = fit_parameters(setups, empirical, config)
        n_pairs = len(config.r0_grid()) * 5
        for wf in result.windows:
            assert len(wf.accepted_r0) == n_pairs
            # Objective contribution equals the unconditional mean loss.
            assert wf.accepted_loss.mean() == pytest.approx(np.mean(wf.accepted_loss))

    def test_accepted_pairs_carry_their_grid_point_and_rates(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=2)
        config = FitConfig(runs_per_point=6, seed=3)
        result = fit_parameters(setups, empirical, config)
        grid = config.r0_grid()
        classes = ("factual", "misleading", "uncertain")
        for wf in result.windows:
            start = wf.window_start
            emp = np.array([empirical[start][c] for c in classes])
            rho = np.stack([sample_rho(setups[start][c], grid, 6, 3, start, c) for c in classes], axis=2)
            loss = ((result.delta * rho - emp) ** 2).sum(axis=2)  # (grid point, replicate)
            for r0, q in zip(wf.accepted_r0, wf.accepted_loss):
                assert q in loss[np.flatnonzero(grid == r0)[0]], (start, r0)
            rates = np.stack([wf.simulated_rates[c] for c in classes], axis=1)
            assert np.allclose(((rates - emp) ** 2).sum(axis=1), wf.accepted_loss, rtol=1e-12, atol=0)

    def test_window_order_permutation_invariant(self):
        setups, empirical, _, _ = planted_fit_problem()
        config = FitConfig(runs_per_point=8, seed=5)
        forward = fit_parameters(setups, empirical, config)
        reversed_setups = dict(reversed(list(setups.items())))
        reversed_emp = dict(reversed(list(empirical.items())))
        backward = fit_parameters(reversed_setups, reversed_emp, config)
        assert forward.delta == backward.delta
        a = {w.window_start: w for w in forward.windows}
        b = {w.window_start: w for w in backward.windows}
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].accepted_r0, b[k].accepted_r0)

    def test_recovers_planted_delta(self):
        setups, empirical, r0_star, delta_star = planted_fit_problem(n_windows=6)
        config = FitConfig(runs_per_point=30, tolerance_pct=0.10, seed=11)
        result = fit_parameters(setups, empirical, config)
        assert abs(result.delta - delta_star) / delta_star < 0.15
        starts = sorted(w.window_start for w in result.windows)
        by_start = {w.window_start: w for w in result.windows}
        hits = 0
        for w_idx, start in enumerate(starts):
            wf = by_start[start]
            if abs(wf.r0_mean - r0_star[w_idx]) <= 0.05 + 2 * wf.r0_std:
                hits += 1
        assert hits >= len(starts) - 1

    def test_unsimulable_windows_excluded_with_reason(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=3)
        bad_start = sorted(setups)[0]
        broken = dict(setups[bad_start])
        broken["factual"] = CascadeSetup(f_a=np.zeros(0, dtype=np.int64), f_sw=np.array([10], dtype=np.int64))
        setups = dict(setups)
        setups[bad_start] = broken
        result = fit_parameters(setups, empirical, FitConfig(runs_per_point=5, seed=2))
        assert bad_start in result.excluded
        assert "factual" in result.excluded[bad_start]
        assert all(w.window_start != bad_start for w in result.windows)

    def test_all_windows_unsimulable_is_error(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=1)
        start = next(iter(setups))
        empirical = {start: {"factual": None, "misleading": None, "uncertain": None}}
        with pytest.raises(ValueError, match="no simulable window"):
            fit_parameters(setups, empirical, FitConfig(runs_per_point=5))

    def test_simulate_reproduces_fit_replicates_on_grid(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=1)
        (start, per_class), = setups.items()
        classes = tuple(per_class)
        grid = FitConfig().r0_grid()
        runs, seed, delta = 12, 19, 0.07
        cache = _precompute_window(start, per_class, empirical[start], grid, runs, seed)
        for gi in (0, 17, 40, 100):
            for c, cls in enumerate(classes):
                # What `simulate` writes the mean and std of at R0 = grid[gi].
                simulated = delta * sample_rho(per_class[cls], [grid[gi]], runs, seed, start, cls)[0]
                assert np.array_equal(simulated, delta * cache.rho[gi, :, c]), (gi, cls)

    def test_sample_rho_matches_per_replicate_oracle(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=1, n_a=4, n_sw=9)
        (start, per_class), = setups.items()
        grid = FitConfig().r0_grid()
        runs, seed = 6, 23
        cache = _precompute_window(start, per_class, empirical[start], grid, runs, seed)
        for c, (cls, setup) in enumerate(per_class.items()):
            rho = sample_rho(setup, grid, runs, seed, start, cls)
            assert np.array_equal(rho, cache.rho[:, :, c])
            for gi, r0 in enumerate(grid):
                oracle = [simulate_growth_rate(setup, float(r0), 1.0, rngmod.stream(seed, start, rep, cls)) for rep in range(runs)]
                assert np.array_equal(oracle, rho[gi]), (cls, r0)

    def test_threads_do_not_change_result(self):
        setups, empirical, _, _ = planted_fit_problem(n_windows=3)
        config = FitConfig(runs_per_point=8, seed=4)
        one = fit_parameters(setups, empirical, config, threads=1)
        four = fit_parameters(setups, empirical, config, threads=4)
        assert one.delta == four.delta
        for wa, wb in zip(one.windows, four.windows):
            assert np.array_equal(wa.accepted_r0, wb.accepted_r0)


class TestEndToEndSetups:
    def test_build_from_events(self):
        events = []
        # Lookback month: aligned A retweeted by s1, s2; s1 passes to s3.
        events.append(ev(35 * DAY, "A", "s1"))
        events.append(ev(40 * DAY, "A", "s2"))
        events.append(ev(50 * DAY, "s1", "s3"))
        window = TimeWindow(60 * DAY, 90 * DAY)
        g = temporal_network(columns_of(events), window, 1, "factual")
        v_a, v_sw = populations(g, {"A"}, {"A"})
        assert v_a == {"A"}
        assert v_sw == {"s1", "s2", "s3"}
