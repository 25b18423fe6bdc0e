import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import swaynet.events as events_module
from oracles import RetweetEvent, columns_equal, columns_of, logs_of, to_events, write_events_csv
from swaynet.events import (
    CATEGORY_TOKENS,
    CONTENT_CLASSES,
    ByteChunks,
    InvalidEvents,
    NotUTF8,
    canonical_category,
    classify_category,
    parse_events,
    parse_events_csv,
    write_events_jsonl,
    write_follower_logs_csv,
)
from swaynet.store import EventColumns, FollowerSnapshots


def make_line(ts=100, src="a", dst="b", cat="SCIENCE", src_f=10, dst_f=20, **flags):
    rec = {
        "ts": ts,
        "src": src,
        "dst": dst,
        "cat": cat,
        "src_followers": src_f,
        "dst_followers": dst_f,
        "src_bot": flags.get("src_bot", False),
        "dst_bot": flags.get("dst_bot", False),
        "src_verified": flags.get("src_verified", False),
        "dst_verified": flags.get("dst_verified", False),
    }
    return json.dumps(rec)


def jsonl(lines):
    """str items as JSON Lines bytes in a ByteChunks reader: each item is one
    line, ended in `\n` unless it already ends in one."""
    data = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
    return ByteChunks(io.BytesIO(data.encode()))


class TestClassify:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Mainstream media", "factual"),
            ("MSM", "factual"),
            ("SCIENCE", "factual"),
            ("Clickbait", "misleading"),
            ("FAKE/HOAX", "misleading"),
            ("CONSPIRACY/JUNKSCI", "misleading"),
            ("Satire", "uncertain"),
            ("POLITICAL", "uncertain"),
            ("Other", "uncertain"),
            ("SHADOW", "uncertain"),
            ("NA", "uncertain"),
        ],
    )
    def test_mapping(self, raw, expected):
        assert classify_category(raw) == expected

    def test_total_over_all_tokens(self):
        for tok in CATEGORY_TOKENS:
            assert classify_category(tok) in CONTENT_CLASSES

    def test_idempotent_via_canonical_token(self):
        # Feeding the canonical token back in gives the same class.
        assert classify_category("Fake or hoax") == classify_category("FAKE/HOAX")

    def test_unknown_category_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown content category"):
            classify_category("BLOG")

    def test_missing_category_maps_to_na(self):
        assert classify_category(None) == "uncertain"


class TestParse:
    def test_well_formed_science_line(self):
        columns, errors = parse_events(jsonl([make_line(cat="SCIENCE")]))
        events = to_events(columns)
        assert errors == []
        assert events[0].content_class == "factual"
        assert events[0].retweetee == "a" and events[0].retweeter == "b"

    def test_null_category_becomes_na_uncertain(self):
        columns, errors = parse_events(jsonl([make_line(cat=None)]))
        events = to_events(columns)
        assert errors == []
        assert events[0].raw_category == "NA"
        assert events[0].content_class == "uncertain"

    def test_malformed_timestamp_names_the_line(self):
        columns, errors = parse_events(jsonl([make_line(), make_line(ts="not-a-date")]))
        assert len(columns) == 1
        assert len(errors) == 1
        assert errors[0].line_no == 2
        assert "timestamp" in errors[0].message

    def test_negative_follower_count_rejected(self):
        _, errors = parse_events(jsonl([make_line(src_f=-1)]))
        assert len(errors) == 1 and "src_followers" in errors[0].message

    @pytest.mark.parametrize("field,value", [("src", None), ("src", True), ("src", 3), ("dst", None), ("dst", 1.5)])
    def test_user_id_that_is_not_a_string_rejected(self, field, value):
        columns, errors = parse_events(jsonl([make_line(**{field: value}), make_line(src="x", dst="y")]))
        assert [(e.line_no, e.message) for e in errors] == [(1, f"bad {field}: {value!r}")]
        assert columns.users == ["x", "y"]

    @pytest.mark.parametrize("value", [3.7, 0.5, float("inf")])
    def test_fractional_follower_count_rejected(self, value):
        columns, errors = parse_events(jsonl([make_line(src_f=value), make_line(dst_f=value)]))
        assert [(e.line_no, e.message) for e in errors] == [
            (1, f"bad src_followers: {value!r}"),
            (2, f"bad dst_followers: {value!r}"),
        ]
        assert len(columns) == 0

    def test_integral_float_and_digit_string_counts_accepted(self):
        columns, errors = parse_events(jsonl([make_line(src_f=3.0, dst_f="12")]))
        assert errors == []
        assert (columns.src_followers.tolist(), columns.dst_followers.tolist()) == ([3], [12])

    def test_unknown_category_rejected_per_line(self):
        _, errors = parse_events(jsonl([make_line(cat="BLOG")]))
        assert len(errors) == 1

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_events(jsonl([make_line(ts="bad")]), strict=True)

    def test_out_of_range_timestamp(self):
        _, errors = parse_events(jsonl([make_line(ts=999)]), time_range=(0, 500))
        assert len(errors) == 1 and "range" in errors[0].message

    def test_events_in_input_order(self):
        lines = [make_line(ts=t) for t in (5, 3, 9)]
        columns, _ = parse_events(jsonl(lines))
        assert [e.timestamp for e in to_events(columns)] == [5, 3, 9]

    def test_parse_serialize_parse_identity(self):
        lines = [make_line(), make_line(ts=7, cat="Satire", src="x", dst="y", src_bot=True)]
        columns, _ = parse_events(jsonl(lines))
        buf = io.StringIO()
        write_events_jsonl(columns, buf)
        again, errors = parse_events(jsonl(buf.getvalue().splitlines()))
        assert errors == []
        assert columns_equal(again, columns)

    def test_csv_roundtrip(self):
        columns, _ = parse_events(jsonl([make_line(), make_line(ts=7, cat="NA", dst_verified=True)]))
        buf = io.StringIO()
        write_events_csv(to_events(columns), buf)
        buf.seek(0)
        again, errors = parse_events_csv(buf)
        assert errors == []
        assert columns_equal(again, columns)


def ev(ts, src, dst, src_f=0, dst_f=0, src_bot=False, dst_bot=False, src_ver=False, dst_ver=False):
    return RetweetEvent(ts, src, dst, "NA", "uncertain", src_f, dst_f, src_bot, dst_bot, src_ver, dst_ver)


class TestFollowerLogs:
    def test_direct_construction(self):
        # Retweeted at t=10 with 1000 followers, retweeting at t=20 with 1005.
        events = [ev(10, "u", "other", src_f=1000, dst_f=5), ev(20, "x", "u", src_f=7, dst_f=1005)]
        logs = logs_of(columns_of(events).follower_logs())
        assert logs["u"].observations == ((10, 1000), (20, 1005))

    def test_simultaneous_observations_collapse_to_last(self):
        events = [ev(10, "u", "a", src_f=5, dst_f=1), ev(10, "u", "b", src_f=7, dst_f=1)]
        logs = logs_of(columns_of(events).follower_logs())
        assert logs["u"].observations == ((10, 7),)

    def test_absent_user_absent_from_mapping(self):
        logs = logs_of(columns_of([ev(1, "a", "b")]).follower_logs())
        assert "zebra" not in logs

    def test_empty_input(self):
        assert logs_of(columns_of([]).follower_logs()) == {}

    def test_observation_conservation(self):
        # Total observations = 2 per event minus tie collapses.
        events = [ev(1, "a", "b"), ev(2, "a", "c"), ev(2, "a", "d")]
        logs = logs_of(columns_of(events).follower_logs())
        total = sum(len(log.observations) for log in logs.values())
        # a has ts=2 twice collapsed: 6 raw observations - 1 collapse.
        assert total == 5

    def test_strictly_increasing_timestamps(self):
        events = [ev(t % 3, "u", f"p{t}") for t in range(9)]
        logs = logs_of(columns_of(events).follower_logs())
        times = [ts for ts, _ in logs["u"].observations]
        assert times == sorted(set(times))

    def test_csv_bytes_match_csv_writer(self):
        # Labels csv.writer quotes or leaves bare, the empty label (quoted only
        # when alone in a row), and more rows than many write chunks (4,096 each).
        labels = ["plain", "comma,name", 'quo"te', "new\nline", "cr\rname", "crlf,\r\nin", " lead", "trail ", "", "ünï"]
        rng = np.random.default_rng(3)
        ends = rng.integers(len(labels), size=(40_000, 2)).tolist()
        ts = rng.integers(0, 10**6, size=40_000).tolist()
        events = [ev(t, labels[s], labels[d], src_f=t % 977, dst_f=t % 13) for t, (s, d) in zip(ts, ends)]
        table = columns_of(events).follower_logs()
        assert len(table.ts) > 65_536
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["user", "timestamp", "followers"])
        logs = logs_of(table)
        for user in sorted(logs):
            writer.writerows((user, t, c) for t, c in logs[user].observations)
        got = io.StringIO(newline="")
        write_follower_logs_csv(table, got)
        # Row lists rather than one string: a failing diff of the whole text is too slow.
        got_rows, expected_rows = got.getvalue().split("\r\n"), expected.getvalue().split("\r\n")
        assert len(got_rows) == len(expected_rows)
        assert [i for i, (a, b) in enumerate(zip(got_rows, expected_rows)) if a != b] == []

    def test_csv_skips_users_without_rows(self):
        # Users with no rows, first, last and between others in label order.
        table = FollowerSnapshots(["b", "a", "d", "c", "e"], np.array([0, 2, 2, 3, 3, 3]), np.array([1, 5, 2]), np.array([10, 11, 12]))
        got = io.StringIO(newline="")
        write_follower_logs_csv(table, got)
        assert got.getvalue() == "user,timestamp,followers\r\nb,1,10\r\nb,5,11\r\nd,2,12\r\n"
        empty = io.StringIO(newline="")
        write_follower_logs_csv(FollowerSnapshots([], np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)), empty)
        assert empty.getvalue() == "user,timestamp,followers\r\n"


def rates_of(events, user):
    """(bot_rate, verification_rate, n_observations) of one user."""
    columns = columns_of(events)
    n, bot, ver = columns.flag_rates()
    i = columns.users.index(user)
    return bot[i], ver[i], n[i]


class TestFlagRates:
    def test_half_bot(self):
        events = [
            ev(1, "u", "a", src_bot=True),
            ev(2, "u", "b", src_bot=True),
            ev(3, "u", "c", src_bot=False),
            ev(4, "u", "d", src_bot=False),
        ]
        assert rates_of(events, "u")[0] == 0.5

    def test_all_verified(self):
        events = [ev(1, "u", "a", src_ver=True), ev(2, "u", "b", src_ver=True), ev(3, "x", "u", dst_ver=True)]
        _, verification_rate, n_observations = rates_of(events, "u")
        assert verification_rate == 1.0
        assert n_observations == 3

    def test_single_unflagged(self):
        bot_rate, verification_rate, _ = rates_of([ev(1, "u", "a")], "u")
        assert bot_rate == 0.0 and verification_rate == 0.0

    def test_roles_both_counted(self):
        # Self-retweet: the user appears in both roles of one event.
        assert rates_of([ev(1, "u", "u")], "u")[2] == 2


def odd_label_columns(n=300, seed=7):
    # Labels that JSON and CSV both have to escape or quote, few users and a
    # narrow timestamp range so first-appearance interning is exercised.
    labels = ["plain", 'quo"te', "back\\slash", "comma,name", "ünï", "tab\tname", "new\nline", "12", ""]
    rng = np.random.default_rng(seed)
    ts = rng.integers(-5, 50, size=n).tolist()
    ends = rng.integers(len(labels), size=(n, 2)).tolist()
    cats = rng.integers(len(CATEGORY_TOKENS), size=n).tolist()
    followers = rng.integers(0, 10**12, size=(n, 2)).tolist()
    flags = rng.integers(0, 2, size=(n, 4)).astype(bool).tolist()
    events = [
        RetweetEvent(
            ts[i],
            labels[ends[i][0]],
            labels[ends[i][1]],
            CATEGORY_TOKENS[cats[i]],
            classify_category(CATEGORY_TOKENS[cats[i]]),
            *followers[i],
            *flags[i],
        )
        for i in range(n)
    ]
    return columns_of(events)


class TestColumnRoundtrip:
    def test_jsonl_roundtrip(self):
        columns = odd_label_columns()
        buf = io.StringIO()
        assert write_events_jsonl(columns, buf) == len(columns)
        again, errors = parse_events(jsonl(buf.getvalue().splitlines()))
        assert errors == []
        assert columns_equal(again, columns)

    def test_csv_oracle_roundtrip(self):
        columns = odd_label_columns()
        buf = io.StringIO()
        write_events_csv(to_events(columns), buf)
        buf.seek(0)
        again, errors = parse_events_csv(buf)
        assert errors == []
        assert columns_equal(again, columns)

    def test_jsonl_bytes_match_json_dumps_of_each_record(self):
        columns = odd_label_columns()
        buf = io.StringIO()
        write_events_jsonl(columns, buf)
        expected = "".join(
            json.dumps(
                {
                    "ts": e.timestamp,
                    "src": e.retweetee,
                    "dst": e.retweeter,
                    "cat": e.raw_category,
                    "src_followers": e.retweetee_followers,
                    "dst_followers": e.retweeter_followers,
                    "src_bot": e.retweetee_bot,
                    "dst_bot": e.retweeter_bot,
                    "src_verified": e.retweetee_verified,
                    "dst_verified": e.retweeter_verified,
                },
                separators=(",", ":"),
                ensure_ascii=False,
            )
            + "\n"
            for e in to_events(columns)
        )
        assert buf.getvalue() == expected

    def test_roundtrip_across_chunk_boundaries(self):
        # More rows than one parse chunk (16,384) or write chunk (4,096).
        columns = odd_label_columns(n=70_000, seed=8)
        buf = io.StringIO()
        write_events_jsonl(columns, buf)
        again, errors = parse_events(jsonl(buf.getvalue().splitlines()))
        assert errors == []
        assert columns_equal(again, columns)

    def test_empty_stream(self):
        columns, errors = parse_events(jsonl([]))
        assert errors == [] and len(columns) == 0 and columns.users == []
        buf = io.StringIO()
        assert write_events_jsonl(columns, buf) == 0 and buf.getvalue() == ""


# -- the chunked parse against the per-line parse --------------------------------

GOOD_RECORD = st.fixed_dictionaries(
    {
        "ts": st.integers(0, 1000),
        "src": st.sampled_from(["a", "b", "c d", ""]),
        "dst": st.sampled_from(["a", "b", "e", " "]),
        "cat": st.sampled_from(list(CATEGORY_TOKENS) + ["Mainstream media", "fake or hoax", " msm ", None]),
        "src_followers": st.integers(0, 10**6),
        "dst_followers": st.integers(0, 10**6),
        "src_bot": st.booleans(),
        "dst_bot": st.booleans(),
        "src_verified": st.booleans(),
        "dst_verified": st.booleans(),
    }
)
ODD_VALUES = {
    "ts": st.sampled_from([2.5, -3.7, 5.0, "12", " 7 ", "1_0", "soon", True, None, 2**63, -(2**63) - 1, 2**70]),
    "src": st.sampled_from([3, None, True, 1.5, "x{", "}y", "{}", "[z]", "\ud800"]),
    "dst": st.sampled_from([0, False, "q]", "w[", "{", "a\udfff"]),
    "cat": st.sampled_from(["BLOG", "science", 1, True, "Conspiracy and junk science"]),
    "src_followers": st.sampled_from([-1, "12", "x", 3.7, 2.0, True, None, 2**63, -(2**64)]),
    "dst_followers": st.sampled_from([-5, " 4", 1.5, False, 2**64]),
    "src_bot": st.sampled_from([0, 1, 2, "yes", "no", "t", "f", "", "1", "0", "TRUE", "maybe", None, 1.0]),
    "dst_bot": st.sampled_from([0, 1, "true", "false"]),
    "src_verified": st.sampled_from(["T", " yes ", 1, 0.0]),
    "dst_verified": st.sampled_from(["No", None]),
}


@st.composite
def odd_record(draw):
    rec = draw(GOOD_RECORD)
    field = draw(st.sampled_from(sorted(ODD_VALUES)))
    if draw(st.booleans()):
        del rec[field]
    else:
        rec[field] = draw(ODD_VALUES[field])
    return rec


def render(rec, spaced, newline):
    text = json.dumps(rec) if spaced else json.dumps(rec, separators=(",", ":"))
    return text + ("\n" if newline else "")


@st.composite
def event_lines(draw):
    """JSON Lines mostly of valid records, with every kind of line the parser rejects or skips.
    The records share one style, spaced or compact, and one key order, drawn or the wire order,
    so the byte tier can take a chunk of them ahead of a line it refuses."""
    lines, spaced, wire = [], draw(st.booleans()), draw(st.booleans())
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["good"] * 12 + ["odd"] * 3 + ["tail", "blank", "junk", "split"]))
        newline = draw(st.booleans()) or kind == "split"
        if kind in ("good", "odd"):
            rec = draw(GOOD_RECORD if kind == "good" else odd_record())
            if wire:
                rec = {field: rec[field] for field in events_module.EVENT_FIELDS if field in rec}
            lines.append(render(rec, spaced, newline))
        elif kind == "tail":  # a record with something after its closing brace
            tail = draw(st.sampled_from([",0", ' ,"s"', ",{}", " ", "x", "}"]))
            lines.append(render(draw(GOOD_RECORD), False, False) + tail + ("\n" if newline else ""))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "\n", "  \n", "\t"])))
        elif kind == "junk":
            junk = ["not json", "{", "}", "1],[2", '{"a":1},{"b":2}', "[1]", "1", "null", '"s"', "{}", "[", "]", "{]"]
            lines.append(draw(st.sampled_from(junk)) + ("\n" if newline else ""))
        else:  # one object split across two lines
            text = render(draw(GOOD_RECORD), False, False)
            cut = draw(st.integers(1, len(text) - 1))
            lines += [text[:cut] + "\n", text[cut:] + "\n"]
    return lines


def outcome(lines, time_range, strict):
    """parse_events of str items, through jsonl, or of bytes as they are."""
    reader = ByteChunks(io.BytesIO(lines)) if isinstance(lines, bytes) else jsonl(lines)
    try:
        columns, errors = parse_events(reader, time_range, strict)
    except (InvalidEvents, OverflowError) as exc:
        return type(exc), str(exc)
    return columns, errors


def byte_tier(lines, time_range):
    """The byte tier's verdict on str lines joined as one chunk."""
    pad = events_module._PAD
    return events_module._byte_columns(pad + "".join(lines).encode() + pad, time_range)


def per_line_outcome(lines, time_range, strict, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(events_module, "_byte_columns", lambda lines, time_range: None)
        return outcome(lines, time_range, strict)


def same_outcome(a, b):
    if isinstance(a[0], EventColumns) and isinstance(b[0], EventColumns):
        return columns_equal(a[0], b[0]) and a[1] == b[1]
    return a == b


class TestBatchedParse:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=event_lines(),
        chunk=st.integers(1, 1200),
        time_range=st.sampled_from([None, (0, 500), (-(2**80), 2**80)]),
        strict=st.booleans(),
    )
    def test_matches_per_line_parse(self, monkeypatch, lines, chunk, time_range, strict):
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", chunk)
        assert same_outcome(outcome(lines, time_range, strict), per_line_outcome(lines, time_range, strict, monkeypatch))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rec=odd_record(), spaced=st.booleans(), time_range=st.sampled_from([None, (0, 500)]))
    def test_every_odd_value_matches_per_line_parse(self, monkeypatch, rec, spaced, time_range):
        lines = [render(rec, spaced, True)]
        assert same_outcome(outcome(lines, time_range, False), per_line_outcome(lines, time_range, False, monkeypatch))

    def test_two_objects_on_one_line_and_one_split_across_two(self):
        # Decoded as one array these three lines give three valid records, so
        # comparing the decoded count with the line count cannot detect them.
        first, second, third = (make_line(ts=t).replace(", ", ",").replace(": ", ":") for t in (1, 2, 3))
        cut = third.index(',"dst"')
        lines = [first + "," + second + "\n", third[:cut] + "\n", third[cut + 1 :] + "\n"]
        assert len(json.loads("[" + "\n,".join(lines) + "]")) == 3
        # Three lines' worth of quotes in all: the byte tier must reject them line by line.
        assert sum(line.count('"') for line in lines) == 3 * 26
        assert byte_tier(lines, None) is None
        columns, errors = parse_events(jsonl(lines))
        assert len(columns) == 0
        assert [e.line_no for e in errors] == [1, 2, 3]

    def test_bad_lines_over_several_chunks(self, monkeypatch):
        lines = [make_line(ts=i) + "\n" for i in range(40)]
        for i in (3, 17, 18, 39):
            lines[i] = make_line(src_f=-i) + "\n"
        lines[25] = "not json\n"
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", 8 * len(lines[0]))
        assert len(list(jsonl(lines).padded())) > 2
        batched = outcome(lines, None, False)
        assert [e.line_no for e in batched[1]] == [4, 18, 19, 26, 40]
        assert same_outcome(batched, per_line_outcome(lines, None, False, monkeypatch))
        assert outcome(lines, None, True) == (InvalidEvents, "line 4: negative src_followers: -3")

    def test_out_of_range_integer_raises_as_per_line(self, monkeypatch):
        lines = [make_line(ts=1) + "\n", make_line(ts=2**64) + "\n"]
        assert outcome(lines, None, False) == per_line_outcome(lines, None, False, monkeypatch)
        assert outcome(lines, None, False)[0] is OverflowError


# -- the byte tier against the per-line parse ----------------------------------------

WIRE_LABELS = ["plain", "ünï", "", " ", 'quo"te', "back\\slash", "line\u2028sep", "tab\tname", "del\x7f", "😀", "x" * 40, "y" * 129]
WIRE_COUNTS = [0, 1, 9, 10, 10**8 - 1, 10**8, 10**16, 10**17, 10**18 - 1, 10**18, 2**63 - 1]


@st.composite
def wire_columns(draw):
    small = draw(st.booleans())  # every number one the byte tier reads
    top, bottom = (10**18 - 1, 0) if small else (2**63 - 1, -(10**6))
    counts = st.sampled_from([c for c in WIRE_COUNTS if c <= top]) | st.integers(0, top)
    stamps = st.sampled_from([t for t in (0, 7, 10**17, 10**18 - 1, 10**18, -3) if bottom <= t <= top]) | st.integers(bottom, 10**12)
    labels = st.sampled_from(draw(st.lists(st.sampled_from(WIRE_LABELS) | st.text(max_size=12), min_size=1, max_size=4)))
    events = []
    for _ in range(draw(st.integers(0, 20))):
        cat = draw(st.sampled_from(CATEGORY_TOKENS))
        flags = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        events.append(RetweetEvent(draw(stamps), draw(labels), draw(labels), cat, classify_category(cat), draw(counts), draw(counts), *flags))
    return columns_of(events)


def wire_record(e):
    return {
        "ts": e.timestamp,
        "src": e.retweetee,
        "dst": e.retweeter,
        "cat": e.raw_category,
        "src_followers": e.retweetee_followers,
        "dst_followers": e.retweeter_followers,
        "src_bot": e.retweetee_bot,
        "dst_bot": e.retweeter_bot,
        "src_verified": e.retweetee_verified,
        "dst_verified": e.retweeter_verified,
    }


def render_stream(columns, style):
    """The stream as write_events_jsonl writes it (compact, UTF-8 unescaped), or
    each record through json.dumps: its default separators and escapes, or
    UTF-8 left unescaped in either style."""
    if style == "writer":
        buf = io.StringIO()
        write_events_jsonl(columns, buf)
        return buf.getvalue()
    separators = {"spaced": None, "raw-spaced": None, "raw-compact": (",", ":")}[style]
    ascii_only = style == "spaced"
    return "".join(json.dumps(wire_record(e), separators=separators, ensure_ascii=ascii_only) + "\n" for e in to_events(columns))


def byte_tier_reads(columns, style):
    """Whether every line of the stream is one the byte tier must take."""
    ascii_only = style == "spaced"

    def plain(label):
        escaped = any(ch in '"\\' or ch < " " or (ascii_only and ch > "~") for ch in label)
        return not escaped and len(label.encode()) <= events_module._MAX_STRING

    numbers = np.concatenate((columns.ts, columns.src_followers, columns.dst_followers))
    return len(columns) > 0 and all(map(plain, columns.users)) and numbers.min() >= 0 and numbers.max() < 10**18


def refuse(*args):
    raise AssertionError("a chunk the byte tier should have read reached the per-line parse")


class TestByteTier:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        columns=wire_columns(),
        style=st.sampled_from(["writer", "spaced", "raw-spaced", "raw-compact"]),
        chunk=st.integers(1, 1200),
        time_range=st.sampled_from([None, (0, 10**17 + 1), (-(2**80), 2**80)]),
    )
    def test_written_streams_parse_alike_in_every_tier(self, monkeypatch, columns, style, chunk, time_range):
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", chunk)
        lines = io.StringIO(render_stream(columns, style)).readlines()  # split at "\n" only
        every_tier = outcome(lines, time_range, False)
        assert same_outcome(every_tier, per_line_outcome(lines, time_range, False, monkeypatch))
        if time_range is None:
            assert columns_equal(every_tier[0], columns)
        if time_range is None and byte_tier_reads(columns, style):
            with monkeypatch.context() as m:
                m.setattr(events_module, "_line_rows", refuse)
                assert same_outcome(outcome(lines, None, False), every_tier)

    @pytest.mark.parametrize("style", ["writer", "spaced"])
    def test_canonical_chunks_never_reach_the_per_line_parse(self, monkeypatch, style):
        # At least three chunks; all values the byte tier reads.
        n = 30_000
        rng = np.random.default_rng(5)
        labels = ["plain", "", " ", "mis000001", "sw/014343", "x" * 30]
        ends = rng.integers(len(labels), size=(n, 2)).tolist()
        ts = rng.integers(0, 10**10, size=n).tolist()
        counts = rng.integers(0, 10**17, size=(n, 2)).tolist()
        flags = rng.integers(0, 2, size=(n, 4)).astype(bool).tolist()
        cats = rng.integers(len(CATEGORY_TOKENS), size=n).tolist()
        events = [
            RetweetEvent(t, labels[s], labels[d], CATEGORY_TOKENS[c], classify_category(CATEGORY_TOKENS[c]), *f, *b)
            for t, (s, d), c, f, b in zip(ts, ends, cats, counts, flags)
        ]
        columns = columns_of(events)
        data = render_stream(columns, style).encode()
        assert len(list(ByteChunks(io.BytesIO(data)).padded())) >= 3
        monkeypatch.setattr(events_module, "_line_rows", refuse)
        again, errors = parse_events(ByteChunks(io.BytesIO(data)))
        assert errors == [] and columns_equal(again, columns)

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"ts":5,', '"ts":-5,'),  # a sign
            ('"src_followers":10,', '"src_followers":10.0,'),  # a fraction
            ('"src_followers":10,', '"src_followers":1e3,'),  # an exponent
            ('"src_followers":10,', f'"src_followers":{10**18},'),  # 19 digits
            ('"dst_followers":20,', '"dst_followers":020,'),  # a leading zero
            ('"dst_followers":20,', '"dst_followers":2;,'),  # a byte just past the digits
            ('"cat":"SCIENCE"', '"cat":null'),
            ('"cat":"SCIENCE"', '"cat":"BLOG"'),
            ('"src":"a"', '"src":"\\u0061"'),  # an escape
            ('"src":"a"', '"src":"a\tb"'),  # a control byte
            ('"src":"a"', '"src":7'),
            ('"src":"a"', '"src":"' + "a" * 129 + '"'),  # longer than _MAX_STRING
            ('"src_bot":false', '"src_bot":False'),
            ('"src_bot":false', '"src_bot":0'),
            ('"src_bot":false', '"src_bot": false'),  # two styles in one line
            ('"ts":5,"src"', '"src":"a","ts":5,"src"'),  # keys out of order
            ('"src":"a","dst":"b"', '"dst":"a","src":"b"'),  # keys swapped, lengths kept
            ('"cat"', '"cot"'),
            ('"ts":5', '"ts";5'),
            ("{", " {"),
            ("}\n", "}\r\n"),
            ("}\n", "}"),  # the last line without a newline
        ],
    )
    def test_refuses_what_it_cannot_vouch_for(self, monkeypatch, old, new):
        line = json.dumps(json.loads(make_line(ts=5)), separators=(",", ":")) + "\n"
        lines = [line, line.replace(old, new, 1)]
        assert lines[1] != line
        assert byte_tier(lines, None) is None
        assert byte_tier([line, line], None) is not None
        assert same_outcome(outcome(lines, None, False), per_line_outcome(lines, None, False, monkeypatch))

    def test_a_hash_collision_sends_the_chunk_on(self, monkeypatch):
        lines = [make_line(ts=1, src="a", dst="b") + "\n", make_line(ts=2, src="b", dst="a") + "\n"]
        assert byte_tier(lines, None) is not None
        monkeypatch.setattr(events_module, "_HASH_MULTIPLIER", np.uint64(0))  # every string hashes alike
        assert byte_tier(lines, None) is None
        assert byte_tier([lines[0].replace('"b"', '"a"')], None) is not None  # one distinct label
        assert same_outcome(outcome(lines, None, False), per_line_outcome(lines, None, False, monkeypatch))

    @pytest.mark.parametrize("extra,time_range", [(["\n"], None), (["  \n"], None), (["{}\n"], None), ([], (0, 5)), ([], (6, 9))])
    def test_refuses_blank_lines_and_timestamps_outside_the_range(self, monkeypatch, extra, time_range):
        line = json.dumps(json.loads(make_line(ts=5)), separators=(",", ":")) + "\n"
        lines = [line, *extra]
        assert byte_tier(lines, time_range) is None
        assert same_outcome(outcome(lines, time_range, False), per_line_outcome(lines, time_range, False, monkeypatch))


# -- binary chunks and the copy verdict ------------------------------------------------

PLAIN_LABELS = ["a", "b", "c d", "", " ", "ünï", "😀", "a\u2028b", "del\x7f", "x" * 128]
ODD_LABELS = ['quo"te', "back\\slash", "tab\tname", "x" * 129]
ALIASES = ["science", "Mainstream media", "fake or hoax", " MSM", None]


def copy_record(labels, cats, numbers):
    flags = {field: st.booleans() for field, _ in events_module.FLAG_BITS}
    return st.fixed_dictionaries(
        {
            "ts": numbers,
            "src": st.sampled_from(labels),
            "dst": st.sampled_from(labels),
            "cat": st.sampled_from(cats),
            "src_followers": numbers,
            "dst_followers": numbers,
            **flags,
        }
    )


PLAIN_RECORD = copy_record(PLAIN_LABELS, CATEGORY_TOKENS, st.integers(0, 10**6) | st.just(10**18 - 1))
ANY_RECORD = copy_record(
    PLAIN_LABELS + ODD_LABELS, [*CATEGORY_TOKENS, *ALIASES], st.integers(0, 10**6) | st.sampled_from([-1, 10**18])
)


def wire_order(rec):
    return {field: rec[field] for field in events_module.EVENT_FIELDS}


def written_line(rec):
    """The line write_events_jsonl writes for a record."""
    rec = wire_order({**rec, "cat": canonical_category(rec["cat"])})
    return json.dumps(rec, separators=(",", ":"), ensure_ascii=False) + "\n"


def byte_tier_takes(rec):
    def plain(label):
        return not any(ch in '"\\' or ch < " " for ch in label) and len(label.encode()) <= events_module._MAX_STRING

    return plain(rec["src"]) and plain(rec["dst"]) and all(0 <= rec[k] < 10**18 for k in ("ts", "src_followers", "dst_followers"))


@st.composite
def byte_streams(draw):
    """A JSON Lines file as bytes, with the `ts` of each record line and
    whether the file is canonical: each line as write_events_jsonl writes it,
    with values the byte tier reads and a `\n` at its end. A canonical file
    gets up to three departures, each of a kind the copy verdict must see:
    another style, category spelling, label or number, a `\r\n` or bare
    `\r` line end, a blank, bad or undecodable line, or no final newline."""
    records = draw(st.lists(PLAIN_RECORD, max_size=8))
    lines, stamps = [written_line(rec).encode() for rec in records], [rec["ts"] for rec in records]
    canonical = [True] * len(lines)  # of each line
    no_newline = False
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):  # mostly one, so each condition is seen alone
        kind = draw(st.sampled_from(["alias", "spaced", "ascii", "odd", "crlf", "cr", "blank", "bad", "undecodable", "no-newline"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "no-newline":  # applied once every line is in, to the line that ends the file
            no_newline = True
            continue
        if kind in ("blank", "bad"):
            line = draw(st.sampled_from(["\n", "  \n", "\r\n"] if kind == "blank" else ["not json\n", '{"ts": "soon"}\n', "{}\n"]))
            lines.insert(at, line.encode())
            canonical.insert(at, False)
            continue
        rec = draw(ANY_RECORD if kind in ("alias", "odd") else PLAIN_RECORD)
        if kind == "alias":
            rec["cat"] = draw(st.sampled_from(ALIASES))
        line = written_line(rec)
        if kind in ("alias", "spaced", "ascii"):
            separators = None if kind == "spaced" else (",", ":")
            line = json.dumps(wire_order(rec), separators=separators, ensure_ascii=kind != "alias") + "\n"
        elif kind in ("crlf", "cr"):
            line = line[:-1] + {"crlf": "\r\n", "cr": "\r"}[kind]
        canonical.insert(at, line == written_line(rec) and byte_tier_takes(rec))
        line = line.encode()
        if kind == "undecodable":  # Latin-1 "é" in a label of a line otherwise canonical
            line = line.replace(b'"src":"', b'"src":"\xe9', 1)
        lines.insert(at, line)
        stamps.append(rec["ts"])
    if no_newline and lines and lines[-1].endswith(b"\n"):
        lines[-1], canonical[-1] = lines[-1][:-1], False
        if not lines[-1]:  # a blank "\n" is gone, and the line before it ends the file
            del lines[-1], canonical[-1]
    return b"".join(lines), stamps, all(canonical)


def decodes(line):
    try:
        line.decode()
        return True
    except UnicodeDecodeError:
        return False


class TestByteChunks:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stream=byte_streams(), chunk=st.integers(1, 400), time_range=st.sampled_from([None, (0, 500_000)]))
    def test_copy_is_chosen_exactly_when_the_writer_gives_back_the_input(self, monkeypatch, stream, chunk, time_range):
        data, stamps, canonical = stream
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", chunk)
        reader = ByteChunks(io.BytesIO(data))
        if not decodes(data):
            with pytest.raises(NotUTF8):
                parse_events(reader, time_range)
            return
        columns, errors = parse_events(reader, time_range)
        assert reader.hexdigest() == hashlib.sha256(data).hexdigest()
        buf = io.StringIO()
        write_events_jsonl(columns, buf)
        if reader.canonical:  # the oracle of the copy path
            assert buf.getvalue().encode() == data
        kept = time_range is None or all(time_range[0] <= ts < time_range[1] for ts in stamps)
        assert reader.canonical == (canonical and kept)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        stream=byte_streams(),
        chunk=st.integers(1, 400),
        time_range=st.sampled_from([None, (0, 500_000)]),
        strict=st.booleans(),
    )
    def test_str_lines_and_byte_chunks_parse_alike(self, monkeypatch, stream, chunk, time_range, strict):
        data = stream[0]
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", chunk)
        for newline in (None, ""):  # as ingest reads JSON Lines and CSV
            try:
                text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline).readlines()
            except UnicodeDecodeError as exc:
                reason = exc.reason
                with pytest.raises(NotUTF8) as raised:
                    list(ByteChunks(io.BytesIO(data)).text_lines(newline))
            else:
                assert list(ByteChunks(io.BytesIO(data)).text_lines(newline)) == text
        if not decodes(data):
            # The first line that does not decode alone, counted as a text read counts lines.
            line_no = next(i for i, line in enumerate(data.splitlines(), start=1) if not decodes(line))
            assert str(raised.value) == f"line {line_no}: not UTF-8 text ({reason})"
            with pytest.raises(NotUTF8, match=f"^line {line_no}: "):
                parse_events(ByteChunks(io.BytesIO(data)), time_range)
            return
        assert same_outcome(outcome(data, time_range, strict), per_line_outcome(data, time_range, strict, monkeypatch))

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_chunks_stay_near_a_read_whatever_ends_the_lines(self, monkeypatch, end):
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", 200)
        line = written_line(json.loads(make_line(ts=5)))[:-1].encode() + end
        data = line * 30
        reader = ByteChunks(io.BytesIO(data))
        chunks = [bytes(c[len(events_module._PAD) : -len(events_module._PAD)]) for c in reader.padded()]
        assert len(chunks) > 1 and b"".join(chunks) == data
        assert all(len(c) < 200 + len(line) for c in chunks)
        assert all(c.endswith(end) for c in chunks)  # no chunk splits a line, nor a "\r\n"
        assert reader.hexdigest() == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_lines_a_text_read_ends_in_newline_take_the_byte_tier(self, monkeypatch, end):
        def no_line_rows(*args):
            raise AssertionError("the per-line parse was called")

        monkeypatch.setattr(events_module, "_line_rows", no_line_rows)
        lines = [written_line(json.loads(make_line(ts=ts, src=f"u{ts}"))) for ts in range(5)]
        reader = ByteChunks(io.BytesIO(b"".join(line[:-1].encode() + end for line in lines)))
        columns, errors = parse_events(reader)
        assert errors == [] and reader.canonical is False
        assert columns_equal(columns, parse_events(jsonl(lines))[0])

    def test_an_undecodable_line_is_numbered_past_every_kind_of_line_end(self):
        data = b"a\r\nb\rc\n\r\nd\xe9\n"  # lines 1-4 end in "\r\n", "\r", "\n", "\r\n"
        with pytest.raises(NotUTF8, match=r"^line 5: not UTF-8 text \(invalid continuation byte\)$"):
            list(ByteChunks(io.BytesIO(data)).text_lines())
        with pytest.raises(NotUTF8, match=r"^line 5: "):
            parse_events(ByteChunks(io.BytesIO(data)))

    def test_a_line_longer_than_a_read_is_one_chunk(self, monkeypatch):
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", 7)
        data = b"x" * 40 + b"\r" + b"y" * 30 + b"\r\n" + b"z" * 20
        chunks = [bytes(c[len(events_module._PAD) : -len(events_module._PAD)]) for c in ByteChunks(io.BytesIO(data)).padded()]
        assert chunks == [b"x" * 40 + b"\r", b"y" * 30 + b"\r\n", b"z" * 20]

    @pytest.mark.parametrize("tail,canonical", [(b"", True), (b"  ", False), (b"\n", False), (b" \r\n", False)])
    def test_only_a_file_that_ends_with_its_last_line_is_canonical(self, tail, canonical):
        line = written_line(json.loads(make_line(ts=5))).encode()
        reader = ByteChunks(io.BytesIO(line * 2 + tail))
        columns, errors = parse_events(reader)
        assert len(columns) == 2 and errors == [] and reader.canonical is canonical

    def test_a_label_that_is_not_utf8_is_never_taken(self):
        line = written_line({**json.loads(make_line(ts=5)), "src": "caf"}).encode()
        data = line + line.replace(b'"caf"', b'"caf\xe9"') + line  # Latin-1 "é" in the second line's label
        assert events_module._byte_columns(events_module._PAD + data + events_module._PAD, None) is None
        reader = ByteChunks(io.BytesIO(data))
        with pytest.raises(NotUTF8, match=r"^line 2: not UTF-8 text \(invalid continuation byte\)$"):
            parse_events(reader, None)
        assert reader.canonical is None
