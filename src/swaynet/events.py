"""Retweet event streams: parsing, validation, class labelling, derived logs.

Wire format is JSON Lines, one event per line, with fields in this order:
ts, src, dst, cat, src_followers, dst_followers, src_bot, dst_bot,
src_verified, dst_verified. `src` is the retweeted user (the creator),
`dst` is the retweeter (the consumer). CSV with a header row carrying the
same columns is accepted as an alternate input format.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

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
    if not isinstance(value, str):
        raise ValueError(f"bad {field}: {value!r}")
    return value


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


# Lines per batched decode. Larger chunks cost more peak memory than they save time.
_PARSE_CHUNK = 16384

_first_char = itemgetter(slice(None, 1))
_last_two = itemgetter(slice(-2, None))


def row_chunks(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Rows as `event_row` makes them, transposed into column chunks for
    `EventColumns.from_events`, _PARSE_CHUNK rows at a time."""
    it = iter(rows)
    while chunk := list(islice(it, _PARSE_CHUNK)):
        yield tuple(zip(*chunk))


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


# Value types the batch path takes per field, in EVENT_FIELDS order. Any
# other type (a float or string ts or count, a numeric label, a flag spelled
# as a string or number) goes through event_row, which coerces or rejects it.
_BATCH_TYPES = ({int}, {str}, {str}, {str, type(None)}, {int}, {int}, {bool}, {bool}, {bool}, {bool})


def _batch_columns(lines: list[str], time_range: tuple[int, int] | None) -> tuple | None:
    """A chunk's columns from one json.loads of all its lines, or None.

    None sends the chunk to the per-line parse: the batch is not provably the
    same as decoding each line alone, or some value needs event_row to coerce
    or reject it. The proof: every non-blank line starts with `{` and ends
    with `}` (before an optional newline), the chunk holds no other brace and
    no bracket, and lines are joined by a separator holding a newline, which
    no JSON string can contain. So each `{` opens a flat object that the `}`
    of its own line closes, and the array holds exactly the per-line objects.
    """
    if set(map(_first_char, lines)) != {"{"}:
        lines = [line for line in lines if line.strip()]
        if set(map(_first_char, lines)) != {"{"}:
            return None
    if any(end != "}\n" and end[-1] != "}" for end in set(map(_last_two, lines))):
        return None
    text = "\n,".join(lines)
    n = len(lines)
    if text.count("{") != n or text.count("}") != n or "[" in text or "]" in text:
        return None
    try:
        records = json.loads(f"[{text}]")
        columns = [list(map(itemgetter(field), records)) for field in EVENT_FIELDS]
    except (ValueError, KeyError):
        return None
    if any(not set(map(type, col)) <= types for col, types in zip(columns, _BATCH_TYPES)):
        return None
    ts, src, dst, cat, src_f, dst_f, *flag_cols = columns
    try:
        ts, src_f, dst_f = (np.array(col, dtype=np.int64) for col in (ts, src_f, dst_f))
        codes = {c: CATEGORY_INDEX[canonical_category(c)] for c in set(cat)}
    except (OverflowError, ValueError):
        return None
    if src_f.min() < 0 or dst_f.min() < 0:
        return None
    if time_range is not None and not (time_range[0] <= int(ts.min()) and int(ts.max()) < time_range[1]):
        return None
    flags = np.zeros(n, dtype=np.uint8)
    for col, (_, bit) in zip(flag_cols, FLAG_BITS):
        flags[np.array(col, dtype=bool)] |= bit
    return ts, src, dst, np.fromiter(map(codes.__getitem__, cat), np.int8, n), src_f, dst_f, flags


def parse_events(
    lines: Iterable[str],
    time_range: tuple[int, int] | None = None,
    strict: bool = False,
) -> tuple[EventColumns, list[ParseError]]:
    """Parse JSON Lines into EventColumns, preserving input order.

    Invalid lines are reported with their 1-based line number; with
    strict=True the first bad line raises instead. I/O errors from the
    underlying stream propagate (stream-level failure aborts the parse).
    Lines are decoded _PARSE_CHUNK at a time in one batch; a chunk the batch
    cannot vouch for is parsed line by line, which decides every error.
    """
    from .store import EventColumns

    errors: list[ParseError] = []

    def chunks() -> Iterator[tuple]:
        it = iter(lines)
        line_no = 1
        while chunk := list(islice(it, _PARSE_CHUNK)):
            columns = _batch_columns(chunk, time_range)
            if columns is not None:
                yield columns
            else:
                yield from row_chunks(_line_rows(chunk, line_no, time_range, errors, strict))
            line_no += len(chunk)

    return EventColumns.from_events(chunks()), errors


def parse_events_csv(
    handle: TextIO,
    time_range: tuple[int, int] | None = None,
    strict: bool = False,
) -> tuple[EventColumns, list[ParseError]]:
    """Parse the CSV alternate format (header row, same columns)."""
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
    labels = [json.dumps(u) for u in columns.users]
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
    """One row per observation, users in label order, each user's rows by time.

    The bytes equal csv.writer's: csv.writer quotes each label once, as a
    field that is not alone in its row, and rows are formatted a chunk at a time.
    """
    order = np.array(sorted(range(len(table.users)), key=table.users.__getitem__), dtype=np.int64)
    lengths = np.diff(table.ptr)[order]
    ends = np.cumsum(lengths)  # output rows up to and including each user's block
    # Output row i inside a user's block reads table row i + ptr[user] - block start.
    shift = table.ptr[order] - (ends - lengths)
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows((u, "") for u in table.users)
    labels = [line[:-3] for line in lines]  # drop the empty last field and ",\r\n"
    handle.write("user,timestamp,followers\r\n")
    for lo in range(0, len(table.ts), _WRITE_CHUNK):  # index arrays a chunk long, never table-long
        out = np.arange(lo, min(lo + _WRITE_CHUNK, len(table.ts)))
        block = np.searchsorted(ends, out, side="right")
        sel = out + shift[block]
        chunk = zip(order[block].tolist(), table.ts[sel].tolist(), table.count[sel].tolist())
        handle.write("".join([f"{labels[u]},{t},{c}\r\n" for u, t, c in chunk]))


def write_flag_rates_csv(columns: EventColumns, handle: TextIO) -> None:
    """One row per user, in label order, from `EventColumns.flag_rates`."""
    n, bot, ver = (a.tolist() for a in columns.flag_rates())
    writer = csv.writer(handle)
    writer.writerow(["user", "bot_rate", "verification_rate", "n_observations"])
    users = columns.users
    writer.writerows(
        [users[i], f"{bot[i]:.6f}", f"{ver[i]:.6f}", n[i]] for i in sorted(range(len(users)), key=users.__getitem__)
    )
