import io
import tracemalloc

import numpy as np
import pytest

from oracles import columns_equal, label_ids, synth_events, to_events
from swaynet.events import CONTENT_CLASSES
from swaynet.synth import SynthConfig, synthesize

DAY = 86_400


def base_config(**overrides):
    kwargs = dict(
        start=0,
        end=90 * DAY,
        aligned_users={"factual": 25, "misleading": 25, "uncertain": 25},
        swayable_users=150,
        events_per_class={"factual": 4000, "misleading": 4000, "uncertain": 4000},
    )
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


class TestValidation:
    def test_users_without_events_is_error(self):
        config = base_config(events_per_class={"factual": 0, "misleading": 4000, "uncertain": 4000})
        with pytest.raises(ValueError, match="zero event volume"):
            synthesize(config, 1)

    def test_events_without_any_users_is_error(self):
        config = base_config(
            aligned_users={"factual": 0, "misleading": 0, "uncertain": 0},
            swayable_users=0,
            events_per_class={"factual": 10, "misleading": 0, "uncertain": 0},
        )
        with pytest.raises(ValueError):
            synthesize(config, 1)

    def test_rates_length_must_match_windows(self):
        config = base_config(planted_rates={"factual": (0.1, 0.1)})
        with pytest.raises(ValueError, match="needs"):
            synthesize(config, 1)

    def test_range_must_cover_a_window(self):
        with pytest.raises(ValueError, match="window"):
            base_config(end=10 * DAY).validate()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        config = base_config()
        a, b = synthesize(config, 9), synthesize(config, 9)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.write_jsonl(buf_a)
        b.write_jsonl(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_different_seed_differs(self):
        config = base_config()
        a, b = synthesize(config, 9), synthesize(config, 10)
        assert not np.array_equal(a.ts, b.ts)

    def test_events_match_jsonl(self):
        from swaynet.events import ByteChunks, parse_events

        # The narrow reach leaves swayable users out of every event; the
        # column user table, like a parse, lists only users that take part.
        n_seg = base_config().n_segments
        narrow = base_config(swayable_users=400, swayable_reach={c: (0.2,) * n_seg for c in CONTENT_CLASSES})
        for config in (base_config(), narrow):
            result = synthesize(config, 3)
            buf = io.StringIO()
            result.write_jsonl(buf)
            parsed, errors = parse_events(ByteChunks(io.BytesIO(buf.getvalue().encode())))
            assert errors == []
            assert columns_equal(parsed, result.columns())
            assert to_events(parsed) == synth_events(result)
        assert len(parsed.users) < len(result.user_labels)


class TestPlantedStructure:
    def test_volumes_match_config_exactly(self):
        config = base_config(events_per_class={"factual": 3001, "misleading": 2999, "uncertain": 1500})
        result = synthesize(config, 4)
        counts = {cls: 0 for cls in CONTENT_CLASSES}
        for e in to_events(result.columns()):
            counts[e.content_class] += 1
        assert counts == config.events_per_class

    def test_timestamps_inside_range(self):
        result = synthesize(base_config(), 4)
        assert result.ts.min() >= 0
        assert result.ts.max() < 90 * DAY

    def test_planted_involvement_recovered_within_2pct(self):
        # Plant 90% factual involvement for the factual group and recount it
        # from the emitted events over ~1e4 events.
        config = base_config(
            purity=0.90,
            events_per_class={"factual": 3400, "misleading": 3300, "uncertain": 3300},
        )
        result = synthesize(config, 11)
        events = to_events(result.columns())
        planted = set(result.truth()["aligned"]["factual"])
        own = total = 0
        for e in events:
            for user in (e.retweetee, e.retweeter):
                if user in planted:
                    total += 1
                    own += e.content_class == "factual"
        assert total > 0
        assert abs(own / total - 0.90) < 0.02

    def test_planted_rates_direction_measurable(self):
        n_windows = SynthConfig(start=0, end=90 * DAY, aligned_users={}, swayable_users=0, events_per_class={}).n_windows
        rates = {
            "factual": tuple([0.10] * n_windows),
            "misleading": tuple([0.01] * n_windows),
            "uncertain": tuple([0.05] * n_windows),
        }
        config = base_config(planted_rates=rates)
        result = synthesize(config, 8)
        truth = result.truth()

        from swaynet.growth import sliding_windows, window_growth_rate

        table = result.columns().follower_logs()
        for window in sliding_windows(0, 90 * DAY):
            if window.partial:
                continue
            fac = window_growth_rate(table, label_ids(table.users, truth["aligned"]["factual"]), window)
            mis = window_growth_rate(table, label_ids(table.users, truth["aligned"]["misleading"]), window)
            assert fac.rate is not None and mis.rate is not None
            assert fac.rate > mis.rate

    def test_reach_controls_touched_swayable_prefix(self):
        n_seg = base_config().n_segments
        reach = {
            "factual": tuple([0.8] * n_seg),
            "misleading": tuple([0.2] * n_seg),
            "uncertain": tuple([1.0] * n_seg),
        }
        result = synthesize(base_config(swayable_reach=reach), 6)
        columns = result.columns()
        g_fac = columns.build_graph(columns.event_mask(content_class="factual"))
        g_mis = columns.build_graph(columns.event_mask(content_class="misleading"))
        sw_fac = {u for u in g_fac.labels if u.startswith("sw")}
        sw_mis = {u for u in g_mis.labels if u.startswith("sw")}
        assert len(sw_mis) < len(sw_fac)
        # Nested prefixes: the misleading pool sits inside the factual pool.
        assert sw_mis <= sw_fac


def test_peak_memory_per_event():
    # A c10-shaped config (6k aligned users, 20k swayable, 360 days) at 200k
    # events. Keeping every chunk list and each unordered column alive until
    # the end, and segment and fraction columns for all rows, peaked near 120
    # bytes per event; about 53 of them are the result itself.
    n = 200_000
    config = base_config(
        end=360 * DAY,
        aligned_users={cls: 2000 for cls in CONTENT_CLASSES},
        swayable_users=20_000,
        events_per_class={"factual": n * 334 // 1000, "misleading": n * 333 // 1000, "uncertain": n * 333 // 1000},
    )
    tracemalloc.start()
    try:
        result = synthesize(config, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == n and peak <= 85 * n, peak / n
