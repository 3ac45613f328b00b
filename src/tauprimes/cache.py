"""On-disk tau table format.

    TAUCACHE 1
    <N>
    1 1
    2 -24
    ...
    <N> <tau(N)>

ASCII, LF line endings, one record per n = 1..N in order, no trailing
blank line.  Writes are atomic (temp file then rename) so a crashed run
never leaves a half-written cache in place.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .errors import CacheMalformedError, CacheTruncatedError, CacheVersionError
from .series import TauTable, delta_series, tau_values

MAGIC = "TAUCACHE"
VERSION = 1

ENV_CACHE_DIR = "TAUPRIMES_CACHE_DIR"
DEFAULT_CACHE_NAME = "taucache.txt"
_MAX_COUNT_DIGITS = 18


def default_cache_path() -> Path | None:
    """$TAUPRIMES_CACHE_DIR/taucache.txt when the env var is set, else None."""
    root = os.environ.get(ENV_CACHE_DIR)
    if not root:
        return None
    return Path(root) / DEFAULT_CACHE_NAME


def table_for(limit: int, cache_path: str | Path | None = None) -> TauTable:
    """tau(1..limit): every record a cache holds, and delta_series for the rest.

    The cache is `cache_path` when given, else default_cache_path().  A
    `cache_path` that does not exist raises FileNotFoundError; a missing
    default cache holds no records; a bad header or record raises its CacheError.
    """
    # delta_series refuses a limit below 1 before any file is read.
    values = _cached_records(range(1, limit + 1), cache_path) if limit >= 1 else []
    if limit < 1 or len(values) < limit:
        values += delta_series(limit).coeffs[len(values) :]
    return TauTable(tuple(values))


def tau_at(ns: Iterable[int], cache_path: str | Path | None = None) -> dict[int, int]:
    """{n: tau(n)} for each n in ns, from the records of a cache, or computed.

    The cache is found as table_for finds it.  Only record 1 and the records
    of ns are parsed and checked; tau_values computes just the n it lacks, if any.
    """
    ns = set(ns)
    want = sorted(ns | {1})
    values = dict(zip(want, _cached_records(want, cache_path)))
    lacking = ns - values.keys()
    values |= tau_values(lacking) if lacking else {}
    return {n: values[n] for n in sorted(ns)}


def _cached_records(want: Sequence[int], cache_path: str | Path | None) -> list[int]:
    # A named cache is always read, so a wrong path is an error; only the default may be absent.
    if cache_path:
        return _read_records(cache_path, want)
    path = default_cache_path()
    return _read_records(path, want) if path and path.exists() else []


def dump_cache(table: TauTable, stream: TextIO) -> None:
    """Write the table to an open text stream in the TAUCACHE 1 format."""
    stream.write(f"{MAGIC} {VERSION}\n{table.limit}\n")
    stream.writelines(f"{n} {t}\n" for n, t in table.items())


def write_cache(table: TauTable, path: str | Path) -> None:
    """Write the table atomically in the TAUCACHE 1 format."""
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    except OSError as exc:
        # Name the requested path, not the random temp name mkstemp tried.
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            dump_cache(table, fh)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_cache(path: str | Path) -> TauTable:
    """Parse a TAUCACHE file back into a table, validating strictly."""
    return TauTable(tuple(_read_records(path)))


def _read_records(path: str | Path, want: Sequence[int] | None = None) -> list[int]:
    """tau(n) for each n in `want` (ascending, starting at 1) up to the promised count, or for every record.

    Record n sits on line n + 2, so only the lines of `want` are parsed and
    checked; with no `want`, content after the last promised record is an error.
    """
    try:
        # newline="" keeps CR bytes visible so non-LF line endings are rejected
        with open(Path(path), "r", encoding="ascii", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CacheMalformedError(f"file is not ASCII text: {exc}") from exc
    lines = text.split("\n", -1 if want is None else want[-1] + 2)
    if lines and lines[-1] == "":
        lines.pop()

    if not lines:
        raise CacheMalformedError("missing header", line=1)
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != MAGIC or not head[1].isdigit():
        raise CacheMalformedError(f"expected header '{MAGIC} {VERSION}'", line=1)
    if head[1] != str(VERSION):
        raise CacheVersionError(f"format version {head[1]!r}, this reader speaks {VERSION}", line=1)

    if len(lines) < 2:
        raise CacheTruncatedError("record count line missing", line=2)
    count_text = lines[1]
    if len(count_text) > _MAX_COUNT_DIGITS:
        # int() refuses numerals past 4300 digits; no file holds 10^18 records
        raise CacheMalformedError(f"record count has {len(count_text)} digits", line=2)
    if not count_text.isdigit() or str(int(count_text)) != count_text:
        raise CacheMalformedError(f"record count {count_text!r} is not a plain integer", line=2)
    count = int(count_text)
    if count < 1:
        raise CacheMalformedError("record count must be >= 1", line=2)

    if want is None:
        if len(lines) > 2 + count:
            raise CacheMalformedError("content after the last promised record", line=2 + count + 1)
        want = range(1, count + 1)
    else:
        want = want[: bisect_right(want, count)]

    values = []
    for n in want:
        line_no = n + 2
        if n + 1 >= len(lines):
            raise CacheTruncatedError(
                f"file ends after {len(lines) - 2} of {count} records", line=line_no
            )
        record = lines[n + 1]
        parts = record.split(" ")
        if len(parts) != 2:
            raise CacheMalformedError("record is not 'n value'", line=line_no)
        try:
            got, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise CacheMalformedError(f"non-integer record {record!r}", line=line_no) from None
        if f"{got} {value}" != record:
            # rejects CRLF remnants, leading zeros, plus signs, stray spaces
            raise CacheMalformedError(f"non-canonical record {record!r}", line=line_no)
        if got != n:
            raise CacheMalformedError(f"expected record for n={n}, got n={got}", line=line_no)
        values.append(value)
    if values[0] != 1:
        raise CacheMalformedError("tau(1) must be 1", line=3)
    return values
