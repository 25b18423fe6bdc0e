import numpy as np
import pytest

import oracles
from oracles import (
    FollowerLog,
    RetweetEvent,
    active_users,
    build_follower_logs,
    class_of_users,
    columns_of,
    follower_table,
    label_ids,
    label_mask,
)
from swaynet.growth import (
    SECONDS_PER_DAY,
    TimeWindow,
    sliding_windows,
    trend_line,
    window_growth_rate,
)

DAY = SECONDS_PER_DAY


def log(user, *obs):
    return FollowerLog(user, tuple(obs))


def growth_of(logs, aligned, window):
    """window_growth_rate over the table of `logs`, for the aligned labels it holds."""
    table = follower_table(logs)
    return window_growth_rate(table, label_ids(table.users, aligned), window)


def daily_of(columns, by_class):
    return columns.daily_counts_by_class(class_of_users(columns.users, by_class))


class TestSlidingWindows:
    def test_90_day_range_five_full_windows(self):
        windows = sliding_windows(0, 90 * DAY)
        assert len(windows) == 5
        assert [w.start // DAY for w in windows] == [0, 15, 30, 45, 60]
        assert all(not w.partial and w.length == 30 * DAY for w in windows)

    def test_30_day_range_single_window(self):
        windows = sliding_windows(0, 30 * DAY)
        assert len(windows) == 1
        assert windows[0] == TimeWindow(0, 30 * DAY)

    def test_too_short_range_is_error(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            sliding_windows(0, 10 * DAY)

    def test_uncovered_tail_gets_partial_window(self):
        windows = sliding_windows(0, 100 * DAY)
        assert windows[-1].partial
        assert windows[-1] == TimeWindow(75 * DAY, 100 * DAY, partial=True)
        assert all(not w.partial for w in windows[:-1])

    def test_step_exceeding_length_rejected(self):
        with pytest.raises(ValueError, match="step exceeds length"):
            sliding_windows(0, 90 * DAY, 10 * DAY, 20 * DAY)

    def test_successive_starts_differ_by_step(self):
        windows = sliding_windows(0, 200 * DAY)
        full = [w for w in windows if not w.partial]
        diffs = {b.start - a.start for a, b in zip(full, full[1:])}
        assert diffs == {15 * DAY}


class TestActiveUsers:
    def test_two_observations_in_window(self):
        logs = {"u": log("u", (1 * DAY, 10), (20 * DAY, 12))}
        assert active_users(logs, TimeWindow(0, 30 * DAY)) == {"u"}

    def test_single_observation_excluded(self):
        logs = {"u": log("u", (1 * DAY, 10))}
        assert active_users(logs, TimeWindow(0, 30 * DAY)) == set()

    def test_observation_outside_window_not_counted(self):
        logs = {"u": log("u", (1 * DAY, 10), (31 * DAY, 12))}
        assert active_users(logs, TimeWindow(0, 30 * DAY)) == set()

    def test_min_obs_floor_enforced(self):
        with pytest.raises(ValueError):
            active_users({}, TimeWindow(0, 30 * DAY), min_obs=1)


class TestWindowGrowthRate:
    def test_single_user_ten_percent(self):
        logs = {"u": log("u", (0, 100), (29 * DAY, 110))}
        point = growth_of(logs, {"u"}, TimeWindow(0, 30 * DAY))
        assert point.rate == pytest.approx(0.10)
        assert point.n_active == 1

    def test_aggregation_across_users(self):
        logs = {
            "u": log("u", (0, 100), (29 * DAY, 110)),
            "v": log("v", (0, 900), (29 * DAY, 990)),
        }
        point = growth_of(logs, {"u", "v"}, TimeWindow(0, 30 * DAY))
        assert point.rate == pytest.approx(0.10)
        assert (point.f_first, point.f_last) == (1000, 1100)

    def test_losses_can_cancel_gains(self):
        logs = {
            "u": log("u", (0, 100), (29 * DAY, 110)),
            "v": log("v", (0, 900), (29 * DAY, 890)),
        }
        point = growth_of(logs, {"u", "v"}, TimeWindow(0, 30 * DAY))
        assert point.rate == pytest.approx(0.0)

    def test_no_active_users_is_gap_not_crash(self):
        point = growth_of({}, {"u"}, TimeWindow(0, 30 * DAY))
        assert point.rate is None and point.n_active == 0

    def test_zero_baseline_is_gap(self):
        logs = {"u": log("u", (0, 0), (29 * DAY, 10))}
        point = growth_of(logs, {"u"}, TimeWindow(0, 30 * DAY))
        assert point.rate is None

    def test_scale_invariance(self):
        logs_a = {"u": log("u", (0, 100), (10 * DAY, 104), (29 * DAY, 111))}
        logs_b = {"u": log("u", (0, 700), (10 * DAY, 728), (29 * DAY, 777))}
        w = TimeWindow(0, 30 * DAY)
        assert growth_of(logs_a, {"u"}, w).rate == pytest.approx(
            growth_of(logs_b, {"u"}, w).rate
        )

    def test_min_obs_below_one_rejected(self):
        # With min_obs 0, user "u" (observed only before the window) would
        # count as active and read "v"'s rows; at the table end, past it.
        logs = {
            "u": log("u", (0, 100)),
            "v": log("v", (40 * DAY, 900), (50 * DAY, 910)),
            "w": log("w", (0, 50)),
        }
        table, window = follower_table(logs), TimeWindow(30 * DAY, 60 * DAY)
        for min_obs in (0, -1):
            for aligned in ({"u"}, {"w"}):
                with pytest.raises(ValueError, match="min_obs"):
                    window_growth_rate(table, label_ids(table.users, aligned), window, None, min_obs)
        point = window_growth_rate(table, label_ids(table.users, {"u", "v"}), window, None, 1)
        assert (point.n_active, point.f_first, point.f_last) == (1, 900, 910)

    def test_inactive_extra_user_pulls_rate_toward_zero(self):
        w = TimeWindow(0, 30 * DAY)
        base = {"u": log("u", (0, 100), (29 * DAY, 120))}
        with_flat = dict(base, v=log("v", (0, 400), (29 * DAY, 400)))
        r_base = growth_of(base, {"u"}, w).rate
        r_flat = growth_of(with_flat, {"u", "v"}, w).rate
        assert abs(r_flat) < abs(r_base)
        # The absolute change F_last - F_first is untouched.
        p = growth_of(with_flat, {"u", "v"}, w)
        assert p.f_last - p.f_first == 20


class TestTableMatchesOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_stream(self, seed):
        # Few users on a coarse time grid: many simultaneous observations,
        # users with one or no in-window observation, and window edges that
        # fall exactly on observation times.
        rng = np.random.default_rng(seed)
        users = [f"u{i}" for i in range(12)]
        events = []
        for _ in range(600):
            src, dst = rng.choice(len(users), 2, replace=False)
            events.append(
                RetweetEvent(
                    int(rng.integers(0, 20)) * 5 * DAY + int(rng.integers(0, 2)),
                    users[src], users[dst], "NA", "uncertain",
                    int(rng.integers(0, 100)), int(rng.integers(0, 100)),
                    False, False, False, False,
                )
            )
        table = columns_of(events).follower_logs()
        logs = build_follower_logs(events)
        missing = ["ghost", "u99"]
        aligned_sets = [set(users), set(users[:5]) | set(missing), set(missing), set(), set(users[3:9:2])]
        for window in sliding_windows(0, 100 * DAY):
            for aligned in aligned_sets:
                for min_obs in (2, 3):
                    got = window_growth_rate(table, label_ids(table.users, aligned), window, "uncertain", min_obs)
                    assert got == oracles.window_growth_rate(logs, aligned, window, "uncertain", min_obs)
                    if aligned and min_obs == 2:
                        assert got.n_active == len(active_users(logs, window) & aligned)
            population = users + missing
            counts, fallback = table.at(table.ids(population), window.start)
            expected = [oracles.follower_snapshot(logs.get(u), window.start) for u in population]
            assert list(zip(counts.tolist(), fallback.tolist())) == expected


def ev(ts, src, dst, cls="factual"):
    cat = {"factual": "SCIENCE", "misleading": "FAKE/HOAX", "uncertain": "NA"}[cls]
    return RetweetEvent(ts, src, dst, cat, cls, 0, 0, False, False, False, False)


class TestDailyCounts:
    def test_three_events_one_day(self):
        events = [ev(100, "a", "x"), ev(200, "a", "y"), ev(300, "b", "a")]
        counts = daily_of(columns_of(events), {"factual": {"a"}})["factual"]
        assert counts == {0: 3}

    def test_both_endpoints_aligned_counted_once(self):
        counts = daily_of(columns_of([ev(100, "a", "b")]), {"factual": {"a", "b"}})["factual"]
        assert counts == {0: 1}

    def test_label_missing_from_the_user_table_is_ignored(self):
        columns = columns_of([ev(100, "a", "x"), ev(100 + DAY, "b", "y")])
        assert columns.ids(["b", "ghost", "a"]).tolist() == [2, -1, 0]
        assert daily_of(columns, {"factual": {"ghost", "a"}})["factual"] == {0: 1}

    def test_day_without_events_absent(self):
        counts = daily_of(columns_of([ev(100, "a", "x")]), {"factual": {"a"}})["factual"]
        assert 1 not in counts

    def test_class_filter_and_conservation(self):
        events = [
            ev(100, "a", "x", "factual"),
            ev(100 + DAY, "a", "y", "misleading"),
            ev(100 + DAY, "z", "w", "factual"),
        ]
        aligned = {"a"}
        columns = columns_of(events)
        # A user holds one class, so align "a" to each class in turn.
        total = 0
        for c, cls in enumerate(("factual", "misleading", "uncertain")):
            counts = columns.daily_counts_by_class(np.where(label_mask(columns.users, aligned), c, -1))
            total += sum(counts[cls].values())
        touching = sum(1 for e in events if e.retweetee in aligned or e.retweeter in aligned)
        assert total == touching == 2


def reference_trend(series, degree=10):
    """Independent boxcar + polynomial implementation (manual rescaling)."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    smooth = np.empty(n)
    for i in range(n):
        r = min(2, i, n - 1 - i)
        smooth[i] = y[i - r : i + r + 1].mean()
    if n < degree + 1:
        return smooth, False
    x = np.arange(n, dtype=float)
    xs = 2 * (x - x.min()) / (x.max() - x.min()) - 1
    coeffs = np.polyfit(xs, smooth, degree)
    return np.polyval(coeffs, xs), True


class TestTrendLine:
    def test_constant_series_unchanged(self):
        out = trend_line([3.5] * 20)
        assert out.polynomial_applied
        assert np.allclose(out.values, 3.5, atol=1e-9)

    def test_linear_series_preserved(self):
        series = [0.5 * i - 2 for i in range(25)]
        out = trend_line(series)
        assert np.allclose(out.values, series, atol=1e-9)

    def test_sinusoid_matches_independent_reference(self):
        x = np.arange(40)
        series = np.sin(x / 5.0) + 0.1 * x
        out = trend_line(series)
        expected, fitted = reference_trend(series)
        assert fitted and out.polynomial_applied
        assert np.allclose(out.values, expected, atol=1e-6)

    def test_short_series_boxcar_only_flagged(self):
        out = trend_line([1.0, 2.0, 3.0, 4.0, 5.0])
        assert not out.polynomial_applied
        assert len(out.values) == 5

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            trend_line([])
