"""Narrow columns against int64 oracles.

User ids and follower counts are int32 in the columns and the cache while
they fit. Every product or packed key built from ids must still be formed
in int64: NumPy 2 keeps `int32 * python int` as int32, and the codes of a
(src, dst) pair reach n_users^2. The streams here hold at least 46,341
users, so that n_users^2 > 2^31 and a code formed in int32 wraps; the c10
config's 26,000 users never do.
"""

import io
import json
import os

import numpy as np
import pytest

from oracles import (
    RetweetEvent,
    backbone_pair_mask_by_label_set,
    build_network,
    columns_equal,
    columns_of,
    follower_table_by_lexsort,
    involvement_counts,
    to_events,
)
from swaynet import cli, store
from swaynet.alignment import involvement_profiles
from swaynet.events import CONTENT_CLASSES, ByteChunks, parse_events, write_events_jsonl
from swaynet.store import EventColumns, count_dtype, id_dtype
from swaynet.synth import SynthConfig, synthesize

N_USERS = 50_000  # past 46,341: (N_USERS - 1) * N_USERS overflows int32
INT32_MAX = 2**31 - 1
DAY = 86_400


def wide_events(n=60_000, seed=3):
    """n events over N_USERS users, every user in some event, in no time order."""
    rng = np.random.default_rng(seed)
    users = np.concatenate([rng.permutation(N_USERS), rng.integers(0, N_USERS, 2 * n - N_USERS)])
    cats = ("SCIENCE", "FAKE/HOAX", "OTHER")
    classes = ("factual", "misleading", "uncertain")
    kind = rng.integers(0, 3, n)
    return [
        RetweetEvent(int(t), f"u{s}", f"u{d}", cats[k], classes[k], int(fs), int(fd), False, False, False, False)
        for t, s, d, k, fs, fd in zip(
            rng.integers(0, 90 * DAY, n), users[0::2], users[1::2], kind, rng.integers(0, 10**6, n), rng.integers(0, 10**6, n)
        )
    ]


@pytest.fixture(scope="module")
def events():
    return wide_events()


@pytest.fixture(scope="module")
def columns(events):
    columns = columns_of(events)
    assert len(columns.users) == N_USERS and columns.src.dtype == np.int32 and columns.src_followers.dtype == np.int32
    return columns


def edge_weights(g):
    return {(s, d): w for s, d, w in g.edges()}


def test_build_graph_matches_object_path(events, columns):
    assert edge_weights(columns.build_graph()) == edge_weights(build_network(events))
    window = (30 * DAY, 60 * DAY)
    rows = columns.class_time_rows("misleading", *window)
    assert edge_weights(columns.build_graph(rows)) == edge_weights(build_network(events, window, "misleading"))


def test_backbone_pair_mask_matches_int64_search(columns):
    g = columns.build_graph()
    kept = g.subgraph_from_edge_mask(np.arange(g.n_edges) % 3 == 0)
    mask = cli._backbone_pair_mask(columns, kept)
    assert mask.sum() > 0 and np.array_equal(mask, backbone_pair_mask_by_label_set(columns, kept))


def test_involvement_profiles_match_per_event_count(events, columns):
    profiles = involvement_profiles(columns.src, columns.dst, columns.content_class_idx, len(columns.users))
    counts = involvement_counts((e.retweetee, e.retweeter, e.content_class) for e in events)
    expected = np.array([[counts[u][cls] for cls in CONTENT_CLASSES] for u in columns.users])
    assert profiles.dtype == np.int64 and np.array_equal(profiles, expected)


@pytest.mark.parametrize("blocks", [1, 16])
def test_follower_table_matches_lexsort(monkeypatch, columns, blocks):
    # One block spans every user: its keys need 16 user bits, 16 rank bits and a role bit.
    monkeypatch.setattr(store, "_FOLLOWER_BLOCKS", blocks)
    built = EventColumns(columns.users, *(getattr(columns, n) for n in store._COLUMNS))
    expected = follower_table_by_lexsort(columns)
    table = built.follower_logs()
    assert table.count.dtype == np.int32
    assert all(np.array_equal(getattr(table, k), getattr(expected, k)) for k in ("ptr", "ts", "count"))


# -- the width rules ------------------------------------------------------------------------


def test_id_width_follows_the_user_count():
    assert id_dtype(0) == id_dtype(2**31 - 1) == np.int32
    assert id_dtype(2**31) == np.int64


@pytest.mark.parametrize("top, dtype", [(INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)], ids=["int32-max", "past-int32"])
def test_count_width_follows_every_count(top, dtype):
    assert count_dtype(np.array([0, 5]), np.array([top])) == dtype
    assert count_dtype(np.array([], dtype=np.int64)) == np.int32


def count_stream(top):
    """Events whose largest count, on the last event's retweeter, is `top`."""
    flags = (False,) * 4
    return [RetweetEvent(i, f"u{i % 7}", f"u{(i + 3) % 7}", "NA", "uncertain", i, top if i == 99 else 2 * i, *flags) for i in range(100)]


def jsonl(columns, reverse_keys=False):
    text = io.StringIO()
    write_events_jsonl(columns, text)
    lines = text.getvalue().splitlines(keepends=True)
    if reverse_keys:  # not the wire order: every line goes to the per-line parse
        lines = [json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in lines]
    return "".join(lines).encode()


@pytest.mark.parametrize("reverse_keys", [False, True], ids=["byte-tier", "per-line"])
@pytest.mark.parametrize("top, dtype", [(INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)], ids=["int32-max", "past-int32"])
def test_parse_widens_both_count_columns_together(top, dtype, reverse_keys):
    events = count_stream(top)
    parsed, errors = parse_events(ByteChunks(io.BytesIO(jsonl(columns_of(events), reverse_keys))))
    assert not errors and to_events(parsed) == events
    assert parsed.src.dtype == np.int32
    assert parsed.src_followers.dtype == parsed.dst_followers.dtype == dtype
    assert parsed.follower_logs().count.dtype == dtype


@pytest.mark.parametrize("mu, dtype", [(5.0, np.int32), (30.0, np.int64)], ids=["default", "past-int32"])
def test_synth_columns_equal_their_parse(mu, dtype):
    config = SynthConfig(
        start=0, end=45 * DAY, aligned_users={"factual": 5, "misleading": 5, "uncertain": 5}, swayable_users=30,
        events_per_class={"factual": 300, "misleading": 300, "uncertain": 300}, follower_mu=mu,
    )
    columns = synthesize(config, 4).columns()
    assert columns.src.dtype == np.int32 and columns.src_followers.dtype == dtype
    parsed, _ = parse_events(ByteChunks(io.BytesIO(jsonl(columns))))
    assert columns_equal(parsed, columns)


# -- whole stages against an all-int64 run ----------------------------------------------------


def synth_tree(out):
    """A README-sized synth whose events.jsonl gains 25,000 pairs of fresh
    users, each pair retweeting once each way in two classes, so they stay
    unaligned: 50,000 more users, interned after the synth's."""
    assert cli.run(["synth", "--out", out, "--seed", "3", "--range-start", "0", "--range-end", str(120 * DAY)]) == 0
    rng = np.random.default_rng(8)
    lines = []
    for i, t in enumerate(rng.integers(0, 120 * DAY - 1, 25_000).tolist()):
        a, b = f'"p{2 * i}"', f'"p{2 * i + 1}"'
        lines.append(f'{{"ts":{t},"src":{a},"dst":{b},"cat":"SCIENCE","src_followers":{i % 100},"dst_followers":7,'
                     '"src_bot":false,"dst_bot":false,"src_verified":false,"dst_verified":false}\n')
        lines.append(f'{{"ts":{t + 1},"src":{b},"dst":{a},"cat":"FAKE/HOAX","src_followers":7,"dst_followers":{i % 100},'
                     '"src_bot":false,"dst_bot":false,"src_verified":false,"dst_verified":false}\n')
    with open(os.path.join(out, "events.jsonl")) as fh:
        return fh.readlines() + lines


def with_top_count(lines, top):
    """The lines with the largest src_followers, that of an aligned user, raised to `top`."""
    records = [json.loads(line) for line in lines]
    i = max(range(len(records)), key=lambda k: records[k]["src_followers"])
    records[i]["src_followers"] = top
    return [json.dumps(r, separators=(",", ":")) + "\n" for r in records]


def run_stages(events_path, out):
    stages = [
        ["ingest", "--events", events_path],
        ["backbone", "--alpha", "0.05"],
        ["align", "--theta", "0.95"],
        ["growth"],
        ["fit", "--runs", "5", "--seed", "3"],
    ]
    for argv in stages:
        assert cli.run([*argv, "--out", out]) == 0, argv


def tree_files(root):
    files = {}
    for d, dirs, names in os.walk(root):
        dirs[:] = [x for x in dirs if x != "events_cache"]
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                files[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return files


@pytest.fixture(scope="module")
def wide_lines(tmp_path_factory):
    return synth_tree(str(tmp_path_factory.mktemp("synth")))


@pytest.mark.parametrize("top, counts", [(INT32_MAX, "int32"), (INT32_MAX + 1, "int64")], ids=["int32-max", "past-int32"])
def test_stages_match_an_all_int64_run(tmp_path, monkeypatch, wide_lines, top, counts):
    events_path = tmp_path / "retweets.jsonl"
    events_path.write_text("".join(with_top_count(wide_lines, top)))
    run_stages(str(events_path), str(tmp_path / "narrow"))
    meta = json.loads((tmp_path / "narrow" / "events_cache" / "cache_meta.json").read_text())
    assert meta["n_users"] > N_USERS
    assert meta["dtypes"]["src"] == "int32" and meta["dtypes"]["follower_count"] == meta["dtypes"]["src_followers"] == counts
    with monkeypatch.context() as m:
        m.setattr(store, "id_dtype", lambda n_users: np.dtype(np.int64))
        m.setattr(store, "count_dtype", lambda *counts: np.dtype(np.int64))
        run_stages(str(events_path), str(tmp_path / "wide"))
    meta = json.loads((tmp_path / "wide" / "events_cache" / "cache_meta.json").read_text())
    assert set(meta["dtypes"][n] for n in ("src", "dst", "src_followers", "dst_followers", "follower_count")) == {"int64"}
    narrow, wide = tree_files(tmp_path / "narrow"), tree_files(tmp_path / "wide")
    assert "fit.json" in narrow and narrow.keys() == wide.keys()
    assert [name for name in narrow if narrow[name] != wide[name]] == []
