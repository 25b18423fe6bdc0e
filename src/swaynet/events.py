"""Retweet event streams: parsing, validation, class labelling, derived logs.

Wire format is JSON Lines, one event per line, with fields in this order:
ts, src, dst, cat, src_followers, dst_followers, src_bot, dst_bot,
src_verified, dst_verified. `src` is the retweeted user (the creator),
`dst` is the retweeter (the consumer). CSV with a header row carrying the
same columns is accepted as an alternate input format.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

if TYPE_CHECKING:
    from .store import EventColumns, FollowerSnapshots

FACTUAL = "factual"
MISLEADING = "misleading"
UNCERTAIN = "uncertain"
CONTENT_CLASSES = (FACTUAL, MISLEADING, UNCERTAIN)

# Canonical category tokens as they appear on the wire.
CATEGORY_TOKENS = (
    "SCIENCE",
    "MSM",
    "SATIRE",
    "CLICKBAIT",
    "POLITICAL",
    "FAKE/HOAX",
    "CONSPIRACY/JUNKSCI",
    "OTHER",
    "SHADOW",
    "NA",
)

CATEGORY_INDEX = {tok: i for i, tok in enumerate(CATEGORY_TOKENS)}

# Long-form spellings accepted on input alongside the wire tokens.
_CATEGORY_ALIASES = {
    "SCIENCE": "SCIENCE",
    "MSM": "MSM",
    "MAINSTREAM MEDIA": "MSM",
    "SATIRE": "SATIRE",
    "CLICKBAIT": "CLICKBAIT",
    "POLITICAL": "POLITICAL",
    "FAKE/HOAX": "FAKE/HOAX",
    "FAKE OR HOAX": "FAKE/HOAX",
    "CONSPIRACY/JUNKSCI": "CONSPIRACY/JUNKSCI",
    "CONSPIRACY AND JUNK SCIENCE": "CONSPIRACY/JUNKSCI",
    "OTHER": "OTHER",
    "SHADOW": "SHADOW",
    "NA": "NA",
}

CLASS_BY_CATEGORY = {
    "SCIENCE": FACTUAL,
    "MSM": FACTUAL,
    "FAKE/HOAX": MISLEADING,
    "CONSPIRACY/JUNKSCI": MISLEADING,
    "CLICKBAIT": MISLEADING,
    "SATIRE": UNCERTAIN,
    "POLITICAL": UNCERTAIN,
    "OTHER": UNCERTAIN,
    "SHADOW": UNCERTAIN,
    "NA": UNCERTAIN,
}

EVENT_FIELDS = (
    "ts",
    "src",
    "dst",
    "cat",
    "src_followers",
    "dst_followers",
    "src_bot",
    "dst_bot",
    "src_verified",
    "dst_verified",
)

# Bit per flag field in EventColumns.flags.
SRC_BOT, DST_BOT, SRC_VERIFIED, DST_VERIFIED = 1, 2, 4, 8
FLAG_BITS = (("src_bot", SRC_BOT), ("dst_bot", DST_BOT), ("src_verified", SRC_VERIFIED), ("dst_verified", DST_VERIFIED))


def canonical_category(raw_category: str | None) -> str:
    """Normalize a category spelling to its wire token.

    Accepts the uppercase wire tokens and the long-form names; a missing
    category (None) means no URL-derived label and maps to NA. Unknown
    labels are a hard error so the class mapping stays exhaustive.
    """
    if raw_category is None:
        return "NA"
    token = _CATEGORY_ALIASES.get(str(raw_category).strip().upper())
    if token is None:
        raise ValueError(f"unknown content category: {raw_category!r}")
    return token


def classify_category(raw_category: str | None) -> str:
    """Map one of the ten categories (or NA) to factual/misleading/uncertain."""
    return CLASS_BY_CATEGORY[canonical_category(raw_category)]


class InvalidEvents(ValueError):
    """An event stream with invalid lines: a data error, not a runtime failure."""


class NotUTF8(InvalidEvents):
    """The first line of a byte stream that does not decode as UTF-8."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: not UTF-8 text ({reason})")


@dataclass(frozen=True, slots=True)
class ParseError:
    line_no: int
    message: str


def _as_int(value) -> int | None:
    """An int, an integral float or a string holding an int (every CSV value
    is a string) as an int; None for anything else, bools included."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    return None


def _coerce_timestamp(value) -> int:
    ts = _as_int(value)
    if ts is None:
        raise ValueError(f"malformed timestamp: {value!r}")
    return ts


def _coerce_count(value, field: str) -> int:
    count = _as_int(value)
    if count is None:
        raise ValueError(f"bad {field}: {value!r}")
    if count < 0:
        raise ValueError(f"negative {field}: {count}")
    return count


def _coerce_user(value, field: str) -> str:
    """A string label that encodes as UTF-8: json.loads also gives a lone
    surrogate ("\\ud800"), which no file swaynet writes can hold."""
    if isinstance(value, str):
        try:
            value.encode()
            return value
        except UnicodeEncodeError:
            pass
    raise ValueError(f"bad {field}: {value!r}")


_TRUE = {"true", "1", "t", "yes"}
_FALSE = {"false", "0", "f", "no", ""}


def _coerce_flag(value, field: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        low = value.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
    raise ValueError(f"bad {field}: {value!r}")


def event_row(rec: dict, time_range: tuple[int, int] | None = None) -> tuple[int, str, str, int, int, int, int]:
    """Validate a wire record (dict of EVENT_FIELDS) into one EventColumns row:
    (ts, src, dst, category index, src_followers, dst_followers, flag bits)."""
    missing = [f for f in EVENT_FIELDS if f not in rec]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    ts = _coerce_timestamp(rec["ts"])
    if time_range is not None and not (time_range[0] <= ts < time_range[1]):
        raise ValueError(f"timestamp {ts} outside dataset range [{time_range[0]}, {time_range[1]})")
    src = _coerce_user(rec["src"], "src")
    dst = _coerce_user(rec["dst"], "dst")
    cat = CATEGORY_INDEX[canonical_category(rec["cat"])]
    src_followers = _coerce_count(rec["src_followers"], "src_followers")
    dst_followers = _coerce_count(rec["dst_followers"], "dst_followers")
    flags = 0
    for field, bit in FLAG_BITS:
        if _coerce_flag(rec[field], field):
            flags |= bit
    return ts, src, dst, cat, src_followers, dst_followers, flags


def _reject(errors: list[ParseError], line_no: int, exc: ValueError, strict: bool) -> None:
    if strict:
        raise InvalidEvents(f"line {line_no}: {exc}") from None
    errors.append(ParseError(line_no, str(exc)))


# Rows per `row_chunks` chunk. Larger chunks cost more peak memory than they save time.
_PARSE_CHUNK = 16384


def _intern(src: Sequence[str], dst: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A chunk's user table, in order of first appearance (src before dst
    within a row), and each row's src and dst index into it."""
    labels = [""] * (2 * len(src))
    labels[0::2], labels[1::2] = src, dst
    index = {u: i for i, u in enumerate(dict.fromkeys(labels))}
    ids = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    return list(index), ids[0::2], ids[1::2]


def row_chunks(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Rows as `event_row` makes them, transposed into column chunks for
    `EventColumns.from_events`, _PARSE_CHUNK rows at a time."""
    it = iter(rows)
    while chunk := list(islice(it, _PARSE_CHUNK)):
        ts, src, dst, *rest = zip(*chunk)
        users, src_ids, dst_ids = _intern(src, dst)
        yield users, ts, src_ids, dst_ids, *rest


def _line_rows(
    lines: list[str],
    first_line_no: int,
    time_range: tuple[int, int] | None,
    errors: list[ParseError],
    strict: bool,
) -> Iterator[tuple]:
    """The per-line parse: one json.loads and one event_row per non-blank line."""
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            row = event_row(rec, time_range)
        except ValueError as exc:
            _reject(errors, line_no, exc, strict)
            continue
        yield row


# -- the byte tier: canonical lines read by position -------------------------------
#
# After simdjson (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
# VLDB J. 2019): find a chunk's structural bytes in bulk, then read each
# value at its position. A "word" is the 8 bytes at a position, as one
# little-endian uint64. Arrays are (field, line): row k holds field k of
# every line of the chunk. Arrays are updated in place where they can be:
# under the CLI's pinned mmap threshold every fresh array of 64 KiB or more
# is a new mapping, paid for in page faults.

_QUOTES_PER_LINE = 26  # the ten keys and the three string values
_PAD = b" " * 24  # around a chunk: a segment's words reach 23 bytes past its start
_LOW = np.array([(1 << 8 * m) - 1 for m in range(9)], dtype=np.uint64)  # the first m bytes of a word
_HIGH = _LOW[8] - _LOW[::-1]  # the last m bytes
_ZEROS = 0x3030303030303030  # "00000000"
_NIBBLES = 0xF0F0F0F0F0F0F0F0
_FLAG_VALUES = np.array([[bit] for _, bit in FLAG_BITS], dtype=np.uint8)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio
_MAX_STRING = 128  # longest label or category taken, in bytes: keys cost 8 bytes per value per word of the longest


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


class _WireLayout:
    """One wire style of a line: the fixed bytes (segments) around its ten
    values, where each value sits relative to the line's quotes, and the
    words that check every segment byte."""

    def __init__(self, colon: str, comma: str):
        segments, close = [], ""
        for i, field in enumerate(EVENT_FIELDS):
            quote = '"' if field in ("src", "dst", "cat") else ""
            segments.append(f'{close}{comma if i else "{"}"{field}"{colon}{quote}')
            close = quote
        segments.append(close + "}\n")
        # Value k starts just after the last quote of segment k and stops at
        # the first quote of segment k + 1; the last value stops at "}\n".
        seen = np.cumsum([s.count('"') for s in segments]).tolist()
        self.starts = [(seen[k] - 1, len(s) - s.rindex('"')) for k, s in enumerate(segments[:-1])]  # (quote, offset)
        self.stops = [(seen[k], s.index('"')) for k, s in enumerate(segments[1:-1])]
        checks = [(k, o, s[o : o + 8].encode()) for k, s in enumerate(segments) for o in range(0, len(s), 8)]
        self.word_segment = np.array([k for k, _, _ in checks])
        self.word_offset = np.array([[o] for _, o, _ in checks])
        self.word_mask = _LOW[[[len(w)] for _, _, w in checks]]
        self.word = np.array([[_word(w)] for _, _, w in checks], dtype=np.uint64)


# By the byte after `"ts":`: write_events_jsonl's compact style, or json.dumps' default.
_LAYOUTS = {False: _WireLayout(":", ","), True: _WireLayout(": ", ", ")}


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The value of eight ASCII digits per word, the first digit in the
    lowest byte (Lemire's parse_eight_digits_unrolled), computed in `word`."""
    word -= np.uint64(_ZEROS)
    part = word >> np.uint64(8)
    word *= np.uint64(10)
    word += part
    low = np.uint64(0x000000FF000000FF)
    np.right_shift(word, np.uint64(16), out=part)
    part &= low
    part *= np.uint64(1 + (10000 << 32))
    word &= low
    word *= np.uint64(100 + (1000000 << 32))
    word += part
    word >>= np.uint64(32)
    return word.view(np.int64)


def _read_integers(b: np.ndarray, words: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """The integers spelled in [start, stop), or None unless each is 1 to 18
    ASCII digits with no leading zero (so it is JSON and fits int64)."""
    length = stop - start
    if length.min() < 1 or length.max() > 18 or ((b[start] == ord("0")) & (length > 1)).any():
        return None
    value = np.zeros(length.shape, dtype=np.int64)
    for group in range(-(-int(length.max()) // 8)):  # 8 digits a word, the last ones first
        at = stop - 8 * (group + 1)
        np.maximum(at, 0, out=at)
        word = words[at]
        np.subtract(length, 8 * group, out=at)
        high = _HIGH[np.clip(at, 0, 8, out=at)]  # where the group's digits sit
        word &= high
        high = np.invert(high, out=high)
        high &= np.uint64(_ZEROS)
        word |= high  # "0" in front of the digits
        np.bitwise_and(word, np.uint64(_NIBBLES), out=high)
        bad = (high != np.uint64(_ZEROS)).any()
        np.add(word, np.uint64(0x0606060606060606), out=high)
        high &= np.uint64(_NIBBLES)
        if bad or (high != np.uint64(_ZEROS)).any():
            return None  # some byte is not 0-9
        digits = _eight_digits(word)
        digits *= 10 ** (8 * group)
        value += digits
    return value


def _distinct_strings(b: np.ndarray, words: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple[list[str], np.ndarray] | None:
    """The distinct strings among the string values [start, stop), in order
    of first appearance, and each value's index into them.

    Values are grouped by a hash of their length and words, and each group
    is checked word for word against its first member; None on a hash
    collision, a value longer than _MAX_STRING bytes or one that is not
    UTF-8. The distinct values are gathered with the closing quote after
    each, decoded at once and split at the quotes, which no value holds and
    no multi-byte sequence can."""
    length = stop - start
    if length.max() > _MAX_STRING:
        return None
    keys = [length.view(np.uint64)]
    for offset in range(0, int(length.max()), 8):
        at = start + offset
        np.minimum(at, stop, out=at)  # a value that ends before this word reads its closing quote, masked off
        key = words[at]
        np.subtract(length, offset, out=at)
        key &= _LOW[np.clip(at, 0, 8, out=at)]
        keys.append(key)
    digest = np.zeros(len(start), dtype=np.uint64)
    for key in keys:
        digest ^= key
        digest *= _HASH_MULTIPLIER
        digest ^= digest >> np.uint64(29)
    order = np.argsort(digest)  # groups of equal digests; a stable sort costs twice as much
    ranked = digest[order]
    head = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    first = np.minimum.reduceat(order, head)  # each group's first value
    group = np.empty(len(start), dtype=np.int64)
    group[order] = np.repeat(np.arange(len(head)), np.diff(head, append=len(start)))
    member = first[group]
    if any((key != key[member]).any() for key in keys):
        return None
    appearance = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[appearance] = np.arange(len(first))
    first = first[appearance]
    spans = length[first] + 1  # with the closing quote
    ends = np.cumsum(spans)
    at = np.repeat(start[first] - (ends - spans), spans) + np.arange(ends[-1])
    try:
        return b[at].tobytes().decode().split('"')[:-1], rank[group]
    except UnicodeDecodeError:  # the per-line parse names the line
        return None


def _byte_columns(data: bytes | bytearray, time_range: tuple[int, int] | None) -> tuple[tuple, bool] | None:
    """The columns of a chunk (`data` holds it between _PAD bytes) read by
    byte position, and whether the chunk is canonical (write_events_jsonl of
    its columns gives back its bytes); or None.

    Taken only when every line is one object with the ten EVENT_FIELDS keys
    in wire order, in write_events_jsonl's compact style or json.dumps'
    default one (one style per chunk): no escape and no control byte but
    the newline ending each line, 26 quotes per line, every byte around the
    values equal to that style's, `ts` and counts of 1-18 digits with no
    sign or leading zero, flags `true` or `false`, known categories, labels
    and categories that decode as UTF-8, and `ts` inside `time_range`.
    json.loads of such a line gives the values at these positions; None
    sends the chunk on to the per-line parse. A chunk taken is canonical
    when it is in the compact style and every category is spelled as its
    wire token.
    """
    if data[-len(_PAD) - 1] != ord("\n") or b"\\" in data:
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    found = b < 0x20  # one mask for both scans
    ends = np.flatnonzero(found)
    n = len(ends)
    if (b[ends] != ord("\n")).any():  # the chunk ends in a newline, which must be its only control byte
        return None
    quotes = np.flatnonzero(np.equal(b, ord('"'), out=found))
    del found
    if len(quotes) != _QUOTES_PER_LINE * n:
        return None
    quotes = quotes.reshape(n, _QUOTES_PER_LINE).T
    compact = bool(b[quotes[1, 0] + 2] != ord(" "))
    layout = _LAYOUTS[not compact]
    # Segment k of a line starts where value k - 1 stops; segment 0 at the line's start.
    segment = np.empty((len(layout.stops) + 2, n), dtype=np.intp)
    segment[0, 0] = len(_PAD)
    np.add(ends[:-1], 1, out=segment[0, 1:])
    if (quotes[0] < segment[0]).any() or (quotes[-1] > ends).any():
        return None  # some line holds another line's quotes
    for row, (quote, offset) in enumerate(layout.stops, start=1):
        np.subtract(quotes[quote], offset, out=segment[row])
    np.subtract(ends, 1, out=segment[-1])
    stop = segment[1:]
    start = np.empty_like(stop)
    for row, (quote, offset) in enumerate(layout.starts):
        np.add(quotes[quote], offset, out=start[row])
    del quotes
    # Every segment byte is checked. Then each value starts where its segment
    # ends, for the segment's quotes are the line's quotes counted from its
    # first one, so the values and segments tile the line exactly; a value of
    # negative length fails its own check below.
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    at = segment[layout.word_segment]
    at += layout.word_offset
    word = words[at]
    del at
    word &= layout.word_mask
    if (word != layout.word).any():
        return None
    del word
    numbers = _read_integers(b, words, start[[0, 4, 5]], stop[[0, 4, 5]])
    if numbers is None:
        return None
    ts, src_f, dst_f = (row.copy() for row in numbers)  # apart, so each column's parts free once joined
    if time_range is not None and not (time_range[0] <= int(ts.min()) and int(ts.max()) < time_range[1]):
        return None
    length, flag = stop[6:] - start[6:], words[start[6:]]
    true = (length == 4) & ((flag & _LOW[4]) == _word(b"true"))
    if not (true | ((length == 5) & ((flag & _LOW[5]) == _word(b"false")))).all():
        return None
    labels = _distinct_strings(b, words, start[1:3].T.ravel(), stop[1:3].T.ravel())  # src, dst of each line in turn
    tokens = _distinct_strings(b, words, start[3], stop[3])
    if labels is None or tokens is None:
        return None
    try:
        codes = np.array([CATEGORY_INDEX[canonical_category(t)] for t in tokens[0]], dtype=np.int8)
    except ValueError:
        return None
    users, ids = labels
    flags = (true * _FLAG_VALUES).sum(axis=0, dtype=np.uint8)
    canonical = compact and all(t in CATEGORY_INDEX for t in tokens[0])
    return (users, ts, ids[0::2], ids[1::2], codes[tokens[1]], src_f, dst_f, flags), canonical


# Bytes per read of a binary stream; a chunk is what the last read left after
# its last line end plus one read, cut after its own last line end. 2 MiB holds
# about 11,000 c10 lines, so each int64 column part of a chunk is over the
# 64 KiB mmap threshold (cli.pin_mmap_threshold) and off the heap; 4 MiB
# parses no faster and raises the per-line parse's peak.
_CHUNK_BYTES = 1 << 21


class ByteChunks:
    """A binary stream read once, in chunks of whole lines, and hashed as it
    is read. `parse_events` reads it and sets `canonical`:
    whether write_events_jsonl of the parsed columns gives back exactly the
    bytes read."""

    def __init__(self, handle: BinaryIO):
        self.handle, self.sha256 = handle, hashlib.sha256()
        self.canonical: bool | None = None

    def padded(self) -> Iterator[bytearray]:
        """Each chunk between _PAD bytes, as the byte tier reads it, read into
        place in one fresh buffer. A chunk ends after its last `\n` or `\r`
        (only the last chunk may lack one) and the bytes after it start the
        next, so a chunk is about _CHUNK_BYTES whatever ends its lines; a
        line longer than a read grows its chunk."""
        pad, rest = len(_PAD), b""
        while True:
            start = pad + len(rest)
            buf = bytearray(start + _CHUNK_BYTES)
            buf[:start] = _PAD + rest
            with memoryview(buf) as view:
                n = self.handle.readinto(view[start:])
            del buf[start + n :]
            while not (cut := _line_end(buf, start - 1, eof=not n)):  # no line end yet
                start = len(buf)
                buf += (more := self.handle.read(_CHUNK_BYTES))
                n = len(more)
            if cut == pad:
                return
            rest = bytes(buf[cut:])
            del buf[cut:]
            with memoryview(buf) as view:
                self.sha256.update(view[pad:])
            buf += _PAD
            yield buf

    def hexdigest(self) -> str:
        return self.sha256.hexdigest()

    def text_lines(self, newline: str | None = None) -> Iterator[str]:
        """The stream's lines as a UTF-8 text read with `newline` gives them."""
        line_no = 1
        for data in self.padded():
            lines = _text_lines(data[len(_PAD) : -len(_PAD)], line_no, newline)
            line_no += len(lines)
            yield from lines


def _line_end(buf: bytearray, start: int, eof: bool) -> int:
    """Where the last whole line of `buf` ends, searching from `start`: after
    its last `\n` or `\r`, but before a closing `\r` that the next read may
    follow with `\n`; 0 if there is none, and at eof the end of `buf`."""
    if eof:
        return len(buf)
    stop = len(buf) - (buf[-1] == ord("\r"))
    newline = buf.rfind(b"\n", start, stop)
    return max(newline, buf.rfind(b"\r", max(newline, start), stop)) + 1


def _text_lines(chunk: bytes | bytearray, first_line_no: int, newline: str | None = None) -> list[str]:
    """A chunk's lines as a UTF-8 text read with `newline` gives them, or
    NotUTF8 naming the line of the first byte that does not decode, counted
    as such a read counts lines: at `\n`, `\r\n` or a bare `\r`. None of
    these bytes sits inside a multi-byte sequence."""
    try:
        return io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8", newline=newline).readlines()
    except UnicodeDecodeError:
        try:
            chunk.decode()  # the same failure, at its place in the chunk
        except UnicodeDecodeError as exc:
            head = chunk[: exc.start]
            raise NotUTF8(first_line_no + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n"), exc.reason) from None
        raise


def parse_events(
    reader: ByteChunks,
    time_range: tuple[int, int] | None = None,
    strict: bool = False,
) -> tuple[EventColumns, list[ParseError]]:
    """Parse JSON Lines into EventColumns, preserving input order.

    The reader's chunks count their lines as a text read does, at `\n`,
    `\r\n` or a bare `\r`, and like such a read the byte tier takes each of
    these as `\n`; a chunk that is not UTF-8 raises NotUTF8 naming its line.
    Invalid lines are reported with their 1-based line number; with
    strict=True the first bad line raises instead. I/O errors from the
    underlying stream propagate (stream-level failure aborts the parse).
    Each chunk is decoded by the byte tier (_byte_columns) when it vouches
    for the whole chunk, which it does for canonical lines, else by the
    per-line parse, which decides every error. The reader gets its
    `canonical` verdict once every chunk is parsed.
    """
    from .store import EventColumns

    errors: list[ParseError] = []
    canonical = True

    def chunks() -> Iterator[tuple]:
        nonlocal canonical
        line_no = 1
        for data in reader.padded():
            taken = _byte_columns(data, time_range)
            if taken is None and b"\r" in data:  # as a text read, which ends each line in "\n"
                taken = _byte_columns(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"), time_range)
                if taken is not None:
                    taken = taken[0], False  # the bytes read are not the bytes written
            if taken is not None:
                columns, vouched = taken
                canonical &= vouched
                yield columns
                line_no += len(columns[1])
            else:
                canonical = False
                text = _text_lines(data[len(_PAD) : -len(_PAD)], line_no)
                yield from row_chunks(_line_rows(text, line_no, time_range, errors, strict))
                line_no += len(text)

    parsed = EventColumns.from_events(chunks())
    reader.canonical = canonical
    return parsed, errors


def parse_events_csv(
    handle: Iterable[str],
    time_range: tuple[int, int] | None = None,
    strict: bool = False,
) -> tuple[EventColumns, list[ParseError]]:
    """Parse the CSV alternate format (header row, same columns) from str
    lines as a text read with newline="" gives them."""
    from .store import EventColumns

    errors: list[ParseError] = []

    def rows() -> Iterator[tuple]:
        for line_no, record in enumerate(csv.DictReader(handle), start=2):
            try:
                rec = {k: record.get(k) for k in EVENT_FIELDS}
                if rec["cat"] == "":
                    rec["cat"] = "NA"
                row = event_row(rec, time_range)
            except ValueError as exc:
                _reject(errors, line_no, exc, strict)
                continue
            yield row

    return EventColumns.from_events(row_chunks(rows())), errors


_WRITE_CHUNK = 4096  # rows per write: its lists stay under the 64 KiB mmap threshold (cli.pin_mmap_threshold)


def write_events_jsonl(columns: EventColumns, handle: TextIO) -> int:
    """Serialize columns one JSON object per line; returns the line count."""
    labels = [json.dumps(u, ensure_ascii=False) for u in columns.users]  # UTF-8, so the byte tier reads it back
    cats = [json.dumps(tok) for tok in CATEGORY_TOKENS]
    flag_fields = [
        ",".join(f'"{field}":{"true" if flags & bit else "false"}' for field, bit in FLAG_BITS)
        for flags in range(1 << len(FLAG_BITS))
    ]
    arrays = (columns.ts, columns.src, columns.dst, columns.cat, columns.src_followers, columns.dst_followers, columns.flags)
    n = len(columns)
    for lo in range(0, n, _WRITE_CHUNK):
        chunk = zip(*(a[lo : lo + _WRITE_CHUNK].tolist() for a in arrays))
        handle.write(
            "".join(
                [
                    f'{{"ts":{ts},"src":{labels[s]},"dst":{labels[d]},"cat":{cats[c]},'
                    f'"src_followers":{sf},"dst_followers":{df},{flag_fields[f]}}}\n'
                    for ts, s, d, c, sf, df, f in chunk
                ]
            )
        )
    return n


def write_follower_logs_csv(table: FollowerSnapshots, handle: TextIO) -> None:
    """One row per observation, users in label order, each user's rows by time,
    after the header row the handle already holds.

    The bytes equal csv.writer's: csv.writer quotes each label once, as a
    field that is not alone in its row, and rows are formatted a chunk at a time.
    """
    order = table.label_order
    lengths = np.diff(table.ptr)[order]
    ends = np.cumsum(lengths)  # output rows up to and including each user's block
    # Output row i inside a user's block reads table row i + ptr[user] - block start.
    shift = table.ptr[order] - (ends - lengths)
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows((u, "") for u in table.users)
    labels = [line[:-3] for line in lines]  # drop the empty last field and ",\r\n"
    for lo in range(0, len(table.ts), _WRITE_CHUNK):  # index arrays a chunk long, never table-long
        out = np.arange(lo, min(lo + _WRITE_CHUNK, len(table.ts)))
        block = np.searchsorted(ends, out, side="right")
        sel = out + shift[block]
        chunk = zip(order[block].tolist(), table.ts[sel].tolist(), table.count[sel].tolist())
        handle.write("".join([f"{labels[u]},{t},{c}\r\n" for u, t, c in chunk]))


def write_flag_rates_csv(columns: EventColumns, handle: TextIO) -> None:
    """One row per user, in label order, from `EventColumns.flag_rates`, after
    the header row the handle already holds."""
    n, bot, ver = (a.tolist() for a in columns.flag_rates())
    users = columns.users
    csv.writer(handle).writerows([users[i], f"{bot[i]:.6f}", f"{ver[i]:.6f}", n[i]] for i in columns.label_order.tolist())
