import io
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RetweetEvent,
    build_follower_logs,
    build_network,
    class_of_users,
    columns_equal,
    columns_of,
    daily_counts,
    edge_set,
    flag_rates_by_user,
    follower_table_by_lexsort,
    logs_of,
    synth_events,
    to_events,
    user_flag_rates,
)
from swaynet import store
from swaynet.events import write_events_jsonl
from swaynet.store import EventColumns, Sha256Writer, file_sha256, load_or_parse
from swaynet.synth import SynthConfig, synthesize

DAY = 86_400
COLUMN_NAMES = ("ts", "src", "dst", "cat", "src_followers", "dst_followers", "flags")


def random_events(seed, n, n_users, n_ts):
    """n events over few users and timestamps, in no time order, self-loops included."""
    rng = np.random.default_rng(seed)
    return [
        RetweetEvent(
            int(rng.integers(n_ts)), f"u{rng.integers(n_users)}", f"u{rng.integers(n_users)}", "NA", "uncertain",
            int(rng.integers(50)), int(rng.integers(50)), False, False, False, False,
        )
        for _ in range(n)
    ]


def tables_equal(a, b):
    return a.users == b.users and all(
        getattr(a, k).dtype == getattr(b, k).dtype and np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("ptr", "ts", "count")
    )


@pytest.fixture(scope="module")
def result():
    config = SynthConfig(
        start=0,
        end=45 * DAY,
        aligned_users={"factual": 10, "misleading": 10, "uncertain": 10},
        swayable_users=60,
        events_per_class={"factual": 1200, "misleading": 1200, "uncertain": 1200},
    )
    return synthesize(config, 21)


@pytest.fixture(scope="module")
def events(result):
    return synth_events(result)


@pytest.fixture
def columns(result):
    # Fresh arrays per test: `save` maps a caller's columns onto the cache
    # files, which some tests then corrupt in place.
    return result.columns()


class TestRoundtrip:
    def test_to_events_identity(self, events, columns):
        assert to_events(columns) == events
        assert columns_equal(columns, columns_of(events))

    def test_save_load(self, tmp_path, events, columns):
        columns.save(str(tmp_path / "cache"), "deadbeef")
        loaded = EventColumns.load(str(tmp_path / "cache"), "deadbeef")
        assert loaded is not None
        assert to_events(loaded) == events

    def test_stale_hash_rejected(self, tmp_path, columns):
        columns.save(str(tmp_path / "cache"), "deadbeef")
        assert EventColumns.load(str(tmp_path / "cache"), "00ff") is None

    def test_load_or_parse_parses_jsonl(self, tmp_path, events, result):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        columns = load_or_parse(str(path), str(tmp_path / "cache"), file_sha256(str(path)))
        assert to_events(columns) == events

    def test_parse_of_bytes_that_are_not_the_bytes_hashed_is_not_cached(self, tmp_path, result):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        cache = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="changed while it was read"):
            load_or_parse(str(path), str(cache), "00" * 32)  # hashed before a writer replaced the file
        assert not cache.exists()

    def test_miss_writes_cache_back(self, tmp_path, result, columns):
        # A stale cache is a miss: the parse replaces it, and the next call hits.
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        cache = str(tmp_path / "cache")
        columns_of([]).save(cache, "00ff")
        parsed = load_or_parse(str(path), cache, file_sha256(str(path)))
        assert columns_equal(parsed, columns)
        hit = EventColumns.load(cache, file_sha256(str(path)))
        assert hit is not None
        assert columns_equal(hit, parsed)


class TestCacheFormat:
    def test_any_label_round_trips(self, tmp_path):
        labels = ["a\u2028b", "c\nd", "e\rf", "", " sp ", "\x1c", "z\u0085", "\ud800", "plain"]
        events = [
            RetweetEvent(i, labels[i % len(labels)], labels[(i + 1) % len(labels)], "NA", "uncertain", i, i, False, False, False, False)
            for i in range(20)
        ]
        columns = columns_of(events)
        columns.save(str(tmp_path / "cache"), "deadbeef")
        loaded = EventColumns.load(str(tmp_path / "cache"), "deadbeef")
        assert loaded is not None and columns_equal(loaded, columns)

    def test_cache_disagreeing_with_its_meta_is_a_miss(self, tmp_path, columns):
        cache = tmp_path / "cache"
        columns.save(str(cache), "deadbeef")
        (cache / "users.json").write_text(json.dumps(columns.users[:-1]))
        assert EventColumns.load(str(cache), "deadbeef") is None
        columns.save(str(cache), "deadbeef")
        # `save` maps the columns onto these files: a corrupt file replaces
        # its old one, which is never rewritten in place under the map.
        os.remove(cache / "dst.npy")
        np.save(cache / "dst.npy", columns.dst[:-1])
        assert EventColumns.load(str(cache), "deadbeef") is None
        columns.save(str(cache), "deadbeef")
        os.remove(cache / "flags.npy")
        (cache / "flags.npy").write_bytes(b"truncated")
        assert EventColumns.load(str(cache), "deadbeef") is None

    def test_first_format_cache_is_reparsed_and_rewritten(self, tmp_path, result, columns):
        # The first cache format kept one label per line in users.txt and no
        # format key; it reads as a miss even when its source hash matches.


        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        digest = file_sha256(str(path))
        cache = tmp_path / "cache"
        cache.mkdir()
        for name in ("ts", "src", "dst", "cat", "src_followers", "dst_followers", "flags"):
            np.save(cache / f"{name}.npy", getattr(columns, name))
        (cache / "users.txt").write_text("\n".join(columns.users) + "\n")
        meta = {"n_events": len(columns), "n_users": len(columns.users), "source_sha256": digest}
        (cache / "cache_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
        assert EventColumns.load(str(cache), digest) is None
        parsed = load_or_parse(str(path), str(cache), digest)
        assert columns_equal(parsed, columns)
        hit = EventColumns.load(str(cache), digest)
        assert hit is not None and columns_equal(hit, columns)
        fresh = tmp_path / "fresh"
        columns.save(str(fresh), digest)
        assert sorted(os.listdir(cache)) == sorted(os.listdir(fresh))


    def test_third_format_cache_is_reparsed_and_rewritten(self, tmp_path, result, columns):
        # Format 3 held ids and counts as int64 and recorded no dtypes; a
        # matching hash does not make it a hit, and the parse writes format 4.
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        digest = file_sha256(str(path))
        cache = tmp_path / "cache"
        columns.save(str(cache), digest)
        for name in ("src", "dst", "src_followers", "dst_followers", "follower_count"):
            wide = np.load(cache / f"{name}.npy").astype(np.int64)
            os.remove(cache / f"{name}.npy")  # a new file: `save` left the columns mapped onto the old one
            np.save(cache / f"{name}.npy", wide)
        meta = json.loads((cache / "cache_meta.json").read_text())
        del meta["dtypes"]
        (cache / "cache_meta.json").write_text(json.dumps(dict(meta, format=3), sort_keys=True, indent=1))
        assert EventColumns.load(str(cache), digest) is None
        parsed = load_or_parse(str(path), str(cache), digest)
        assert columns_equal(parsed, columns) and parsed.src.dtype == np.int32
        assert json.loads((cache / "cache_meta.json").read_text())["format"] == 4
        hit = EventColumns.load(str(cache), digest)
        assert hit is not None and columns_equal(hit, columns)
        fresh = tmp_path / "fresh"
        columns.save(str(fresh), digest)
        assert sorted(os.listdir(cache)) == sorted(os.listdir(fresh))
        assert all((cache / name).read_bytes() == (fresh / name).read_bytes() for name in os.listdir(fresh))

    @pytest.mark.parametrize("name, recorded, stored", [
        ("src", "int64", np.int32),  # the file holds what save wrote, the meta another width
        ("follower_count", "int64", np.int32),
        ("dst", "int16", np.int16),  # the meta and the file agree, on a width ids never take
        ("cat", "int64", np.int64),
    ], ids=["src-int32-recorded-int64", "count-int32-recorded-int64", "dst-int16", "cat-int64"])
    def test_dtype_other_than_recorded_or_allowed_is_a_miss(self, tmp_path, columns, name, recorded, stored):
        cache = tmp_path / "cache"
        columns.save(str(cache), "deadbeef")
        values = np.load(cache / f"{name}.npy")
        os.remove(cache / f"{name}.npy")
        np.save(cache / f"{name}.npy", values.astype(stored))
        meta = json.loads((cache / "cache_meta.json").read_text())
        meta["dtypes"][name] = recorded
        (cache / "cache_meta.json").write_text(json.dumps(meta))
        assert EventColumns.load(str(cache), "deadbeef") is None


class TestVectorizedEquivalence:
    def test_graph_matches_object_path(self, events, columns):
        for time_range, cls in (
            (None, None),
            ((5 * DAY, 30 * DAY), None),
            (None, "misleading"),
            ((0, 20 * DAY), "factual"),
        ):
            g_obj = build_network(events, time_range=time_range, class_filter=cls)
            g_col = columns.build_graph(columns.event_mask(time_range, cls))
            assert edge_set(g_col) == edge_set(g_obj)
            assert dict(((s, d), w) for s, d, w in g_col.edges()) == dict(
                ((s, d), w) for s, d, w in g_obj.edges()
            )

    def test_follower_logs_match_object_path(self, events, columns):
        assert logs_of(columns.follower_logs()) == build_follower_logs(events)

    def test_flag_rates_match_object_path(self, events, columns):
        assert flag_rates_by_user(columns) == user_flag_rates(events)

    def test_daily_counts_match_object_path(self, events, columns):
        aligned = {u for u in columns.users if u.startswith("fac")}
        by_class = columns.daily_counts_by_class(class_of_users(columns.users, {"factual": aligned}))
        assert by_class["factual"] == daily_counts(events, "factual", aligned)


class TestTieHeavyEquivalence:
    def test_follower_logs_with_many_simultaneous_observations(self):
        # Few users, tiny timestamp range: lots of (user, ts) collisions, so
        # the last-in-stream-order collapse rule is properly stressed.
        rng = np.random.default_rng(123)
        events = []
        for i in range(500):
            src = f"u{rng.integers(4)}"
            dst = f"u{rng.integers(4)}"
            events.append(
                RetweetEvent(
                    int(rng.integers(0, 6)), src, dst, "NA", "uncertain",
                    int(rng.integers(0, 50)), int(rng.integers(0, 50)),
                    False, False, False, False,
                )
            )
        columns = columns_of(events)
        assert logs_of(columns.follower_logs()) == build_follower_logs(events)
        assert flag_rates_by_user(columns) == user_flag_rates(events)

    def test_flag_rates_with_random_flags(self):
        rng = np.random.default_rng(321)
        events = []
        for _ in range(400):
            flags = rng.random(4) < (0.2, 0.5, 0.3, 0.7)
            events.append(
                RetweetEvent(
                    int(rng.integers(0, 6)), f"u{rng.integers(6)}", f"u{rng.integers(6)}", "NA", "uncertain",
                    1, 1, *(bool(f) for f in flags),
                )
            )
        columns = columns_of(events)
        n, bot, ver = columns.flag_rates()
        assert len(n) == len(bot) == len(ver) == len(columns.users)
        assert n.min() > 0 and 0 < bot.mean() < 1 and 0 < ver.mean() < 1
        assert flag_rates_by_user(columns) == user_flag_rates(events)


class TestFollowerTableBuilder:
    def test_matches_lexsort_on_tie_heavy_streams(self):
        unsorted = 0
        for seed in range(20):
            columns = columns_of(random_events(seed, 300, n_users=2 + seed % 5, n_ts=1 + seed % 7))
            unsorted += bool(np.any(np.diff(columns.ts) < 0))
            assert tables_equal(columns.follower_logs(), follower_table_by_lexsort(columns)), seed
        assert unsorted >= 15

    @pytest.mark.parametrize(
        "rows",
        [[(t % 3, "a", "a", t, 100 - t) for t in range(9)], [(5 - t, "a", "ab"[t % 2], t, 7) for t in range(6)], []],
        ids=["single-user-self-loops", "self-loops-unsorted", "empty"],
    )
    def test_matches_lexsort_on_edge_streams(self, rows):
        flags = (False,) * 4
        columns = columns_of([RetweetEvent(t, s, d, "NA", "uncertain", fs, fd, *flags) for t, s, d, fs, fd in rows])
        assert tables_equal(columns.follower_logs(), follower_table_by_lexsort(columns))

    def test_matches_lexsort_on_synth_stream(self, result):
        columns = result.columns()
        assert tables_equal(columns.follower_logs(), follower_table_by_lexsort(columns))

    def test_built_once_per_columns(self, monkeypatch):
        columns = columns_of(random_events(1, 50, 4, 5))
        builds = []
        build = EventColumns._follower_blocks
        monkeypatch.setattr(EventColumns, "_follower_blocks", lambda self: builds.append(1) or build(self))
        assert columns.follower_logs() is columns.follower_logs()
        assert builds == [1]

    def test_peak_memory_per_event(self):
        # The lexsort builder peaked near 130 bytes per event, the two-sort
        # one near 68. With int32 event and user indices, the run keys freed
        # before the gathers and the retweeter counts filled in blocks, it
        # peaks near 41, of which 32 are the table itself.
        columns = unordered_stream()
        assert traced_peak(columns.follower_logs) <= 50 * len(columns)


def unordered_stream(n=200_000, n_users=5_000):
    """A 200k-event stream in no time order."""
    rng = np.random.default_rng(5)
    ids = lambda: rng.integers(0, n_users, n)  # noqa: E731
    return EventColumns(
        [f"u{i}" for i in range(n_users)], rng.integers(0, 10**7, n), ids(), ids(),
        np.zeros(n, np.int8), rng.integers(0, 10**6, n), rng.integers(0, 10**6, n), np.zeros(n, np.uint8),
    )


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flag_rates_peak_memory_per_event():
    # Concatenating both roles and bincounting float weights peaked near 37
    # bytes per event; integer counts per role need a few.
    columns = unordered_stream()
    assert traced_peak(columns.flag_rates) <= 8 * len(columns)


class TestFollowerTableCache:
    def test_loaded_table_equals_built_and_is_mapped(self, tmp_path, columns):
        columns.save(str(tmp_path / "cache"), "deadbeef")
        loaded = EventColumns.load(str(tmp_path / "cache"), "deadbeef")
        assert loaded is not None and columns_equal(loaded, columns)
        assert tables_equal(loaded.follower_logs(), follower_table_by_lexsort(columns))
        assert_mapped_from(loaded, tmp_path / "cache")

    def test_saved_columns_and_table_are_maps_of_what_was_written(self, tmp_path, columns):
        expected = follower_table_by_lexsort(columns)
        columns.save(str(tmp_path / "cache"), "deadbeef")
        assert_mapped_from(columns, tmp_path / "cache")
        assert tables_equal(columns.follower_logs(), expected)
        assert columns_equal(columns, EventColumns.load(str(tmp_path / "cache"), "deadbeef"))

    def test_empty_stream_is_a_hit(self, tmp_path):
        empty = columns_of([])
        empty.save(str(tmp_path / "cache"), "deadbeef")
        loaded = EventColumns.load(str(tmp_path / "cache"), "deadbeef")
        assert loaded is not None and len(loaded) == 0
        assert tables_equal(loaded.follower_logs(), empty.follower_logs())

    def test_saving_over_a_mapped_table_keeps_it_readable(self, tmp_path, columns):
        cache = str(tmp_path / "cache")
        columns.save(cache, "deadbeef")
        loaded = EventColumns.load(cache, "deadbeef")
        columns_of(random_events(2, 20, 3, 4)).save(cache, "00ff")
        assert tables_equal(loaded.follower_logs(), columns.follower_logs())
        assert columns_equal(loaded, columns)

    def test_second_format_cache_is_reparsed_and_rewritten(self, tmp_path, result, columns):
        # Format 2 had the columns but no follower table; a matching hash
        # does not make it a hit.
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            result.write_jsonl(fh)
        digest = file_sha256(str(path))
        cache = tmp_path / "cache"
        columns.save(str(cache), digest)
        for name in ("follower_ptr", "follower_ts", "follower_count"):
            os.remove(cache / f"{name}.npy")
        meta = json.loads((cache / "cache_meta.json").read_text())
        (cache / "cache_meta.json").write_text(json.dumps(dict(meta, format=2), sort_keys=True, indent=1))
        assert EventColumns.load(str(cache), digest) is None
        parsed = load_or_parse(str(path), str(cache), digest)
        assert columns_equal(parsed, columns)
        hit = EventColumns.load(str(cache), digest)
        assert hit is not None and tables_equal(hit.follower_logs(), follower_table_by_lexsort(columns))
        fresh = tmp_path / "fresh"
        columns.save(str(fresh), digest)
        assert sorted(os.listdir(cache)) == sorted(os.listdir(fresh))
        assert all((cache / name).read_bytes() == (fresh / name).read_bytes() for name in os.listdir(fresh))


def assert_mapped_from(columns, cache):
    """Every column and table array is a plain view of a read-only map of its cache file."""
    table = columns.follower_logs()
    arrays = {name: getattr(columns, name) for name in COLUMN_NAMES}
    arrays.update((f"follower_{k}", getattr(table, k)) for k in ("ptr", "ts", "count"))
    for name, values in arrays.items():
        assert type(values) is np.ndarray and not values.flags.writeable, name
        assert isinstance(values.base, np.memmap), name
        assert os.path.samefile(values.base.filename, cache / f"{name}.npy"), name


def stream(rows, n_users=None):
    """EventColumns over (ts, src, dst, src_followers, dst_followers) rows of
    user indices; users u0.. number `n_users`, by default one past the largest index."""
    ts, src, dst, src_f, dst_f = (np.array(c, dtype=np.int64) for c in zip(*rows)) if rows else [np.zeros(0, np.int64)] * 5
    if n_users is None:
        n_users = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    cat, flags = np.zeros(len(ts), np.int8), np.zeros(len(ts), np.uint8)
    return EventColumns([f"u{i}" for i in range(n_users)], ts, src, dst, cat, src_f, dst_f, flags)


def npy_bytes(values):
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue()


def assert_streams_like_lexsort(columns, directory):
    """Saved, the follower_*.npy files carry np.save's bytes of the lexsort
    oracle, whether or not the table was built in memory first."""
    expected = follower_table_by_lexsort(columns)
    copy = lambda: EventColumns(columns.users, *(getattr(columns, n) for n in COLUMN_NAMES))  # noqa: E731
    built = copy()
    assert tables_equal(built.follower_logs(), expected)
    for name, saved in (("streamed", copy()), ("built", built)):
        saved.save(os.path.join(directory, name), "deadbeef")
        for k in ("ptr", "ts", "count"):
            with open(os.path.join(directory, name, f"follower_{k}.npy"), "rb") as fh:
                assert fh.read() == npy_bytes(getattr(expected, k)), (name, k)


def _edge_streams():
    rng = np.random.default_rng(11)
    n = 400
    skewed = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 60, n))
    return {
        "empty": stream([]),
        "one-user": stream([(t % 3, 0, 0, t, 100 - t) for t in range(9)]),
        "self-retweets": stream([(int(t), int(u), int(u), i, -i) for i, (t, u) in enumerate(zip(rng.integers(0, 5, n), rng.integers(0, 40, n)))]),
        "one-ts": stream([(7, int(s), int(d), i, i + 1) for i, (s, d) in enumerate(rng.integers(0, 50, (n, 2)))]),
        "one-user-most-rows": stream([(int(t), int(s), int(d), i, 2 * i) for i, (t, s, d) in enumerate(zip(rng.integers(0, 20, n), skewed, rng.permutation(skewed)))]),
        "fewer-users-than-blocks": stream([(int(t), int(s), int(d), i, i) for i, (t, s, d) in enumerate(rng.integers(0, 5, (n, 3)))]),
        "users-without-events": stream([(5 - t, 3, 9, t, 7) for t in range(6)], n_users=30),
        "many-users": stream([(int(t), int(s), int(d), i, i) for i, (t, s, d) in enumerate(rng.integers(0, 300, (n, 3)))]),
    }


class TestStreamedFollowerTable:
    @pytest.mark.parametrize("key_bits", [63, 4], ids=["packed-keys", "lexsort"])
    @pytest.mark.parametrize("name", sorted(_edge_streams()))
    def test_edge_streams_match_lexsort(self, tmp_path, monkeypatch, name, key_bits):
        monkeypatch.setattr(store, "_KEY_BITS", key_bits)  # 4 bits fit no key: every block takes the lexsort
        assert_streams_like_lexsort(_edge_streams()[name], str(tmp_path))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n_users: st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, n_users - 1), st.integers(0, n_users - 1), st.integers(0, 99), st.integers(0, 99)),
                max_size=120,
            ).map(lambda rows: stream(rows, n_users))
        )
    )
    def test_random_streams_match_lexsort(self, columns):
        with tempfile.TemporaryDirectory() as directory:
            assert_streams_like_lexsort(columns, directory)

    def test_header_that_would_change_size_is_refused(self, tmp_path, monkeypatch, columns):
        # The table's length is known only once streamed; its header is then
        # written over the placeholder, which must be of the same size.
        header = store._npy_header
        monkeypatch.setattr(store, "_npy_header", lambda dtype, length: header(dtype, length) + b" " * (length > 0))
        with pytest.raises(ValueError, match="header"):
            columns.save(str(tmp_path / "cache"), "deadbeef")

    def test_save_peak_memory_per_event(self, tmp_path):
        # Building the whole table beside the columns, then writing it, peaked
        # near 41 bytes per event. Streamed a block of users at a time from
        # the mapped columns, the save peaks near 15: the time ranks, the
        # block ids and one block's transients.
        columns = unordered_stream()
        assert traced_peak(lambda: columns.save(str(tmp_path / "cache"), "deadbeef")) <= 20 * len(columns)


@pytest.mark.parametrize("labels", [["a", "b c", "d"], ["ünï", "日本", "e\u2028f"]], ids=["ascii", "non-ascii"])
def test_sha256_writer_digest_is_the_file_digest(tmp_path, labels):
    flags = (False,) * 4
    events = [RetweetEvent(i, labels[i % 3], labels[(i + 1) % 3], "NA", "uncertain", i, 2 * i, *flags) for i in range(60)]
    columns = columns_of(events)
    path = tmp_path / "events.jsonl"
    with open(path, "wb") as fh:
        sink = Sha256Writer(fh)
        write_events_jsonl(columns, sink)
    assert sink.hexdigest() == file_sha256(str(path))
    text = io.StringIO()
    write_events_jsonl(columns, text)
    assert path.read_bytes() == text.getvalue().encode("utf-8")


def _set(values, i, v):
    values = values.copy()
    values[i] = v
    return values


MISS_RULES = {
    "column-dtype": ("src", lambda a: a.astype(np.int64)),  # int32 is what the meta records
    "count-dtype": ("follower_count", lambda a: a.astype(np.int64)),
    "column-shape": ("ts", lambda a: a.reshape(-1, 1)),
    "ptr-dtype": ("follower_ptr", lambda a: a.astype(np.int32)),
    "table-ts-dtype": ("follower_ts", lambda a: a.astype(np.int32)),
    "table-count-shape": ("follower_count", lambda a: a.reshape(-1, 1)),
    "ptr-length": ("follower_ptr", lambda a: np.append(a, a[-1])),
    "ptr-start": ("follower_ptr", lambda a: _set(a, 0, 1)),
    "ptr-decreasing": ("follower_ptr", lambda a: _set(a, 1, a[2] + 1)),
    "ptr-end-vs-ts": ("follower_ptr", lambda a: _set(a, -1, a[-1] - 1)),
    "ts-vs-count": ("follower_count", lambda a: a[:-1]),
}


@pytest.mark.parametrize("rule", sorted(MISS_RULES))
def test_cache_array_breaking_a_rule_is_a_miss(tmp_path, columns, rule):
    name, corrupt = MISS_RULES[rule]
    cache = tmp_path / "cache"
    columns.save(str(cache), "deadbeef")
    assert EventColumns.load(str(cache), "deadbeef") is not None
    np.save(cache / f"{name}.npy", corrupt(np.load(cache / f"{name}.npy")))
    assert EventColumns.load(str(cache), "deadbeef") is None


def test_truncated_column_file_is_a_miss(tmp_path, columns):
    cache = tmp_path / "cache"
    columns.save(str(cache), "deadbeef")
    with open(cache / "src.npy", "r+b") as fh:  # the header promises more bytes than the map finds
        fh.truncate(os.path.getsize(cache / "src.npy") - 8)
    assert EventColumns.load(str(cache), "deadbeef") is None
