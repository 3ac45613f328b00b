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
from pathlib import Path
from typing import Iterable, TextIO

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
    """tau(1..limit) from the first `limit` records of a cache, or computed.

    The cache is `cache_path` when given, else default_cache_path().  A
    `cache_path` that does not exist raises FileNotFoundError; a missing
    default cache, or one holding fewer than `limit` records, falls back to
    delta_series; a bad header or needed record raises its CacheError.
    """
    table = _cached_table(limit, cache_path)
    return delta_series(limit) if table is None else table


def tau_at(ns: Iterable[int], cache_path: str | Path | None = None) -> dict[int, int]:
    """{n: tau(n)} for each n in ns, from a cache as table_for reads it, or computed.

    The cache lookup is table_for's with limit max(ns) (1 for no ns); only
    when no cache covers it are the values computed, by tau_values.
    """
    ns = set(ns)
    table = _cached_table(max(ns, default=1), cache_path)
    return tau_values(ns) if table is None else {n: table[n] for n in ns}


def _cached_table(limit: int, cache_path: str | Path | None) -> TauTable | None:
    # A named cache is always read, so a wrong path is an error; only the default may be absent.
    if cache_path:
        return _read_records(cache_path, limit)
    path = default_cache_path()
    return _read_records(path, limit) if path and path.exists() else None


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
    return _read_records(path)


def _read_records(path: str | Path, want: int | None = None) -> TauTable | None:
    """All records, or only the first `want` (None if the file promises fewer)."""
    try:
        # newline="" keeps CR bytes visible so non-LF line endings are rejected
        with open(Path(path), "r", encoding="ascii", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CacheMalformedError(f"file is not ASCII text: {exc}") from exc
    lines = text.split("\n", -1 if want is None else want + 2)
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

    if want is not None:
        if count < want:
            return None
    elif len(lines) > 2 + count:
        raise CacheMalformedError("content after the last promised record", line=2 + count + 1)

    values = []
    for idx in range(count if want is None else want):
        line_no = idx + 3
        if idx + 2 >= len(lines):
            raise CacheTruncatedError(
                f"file ends after {idx} of {count} records", line=line_no
            )
        record = lines[idx + 2]
        parts = record.split(" ")
        if len(parts) != 2:
            raise CacheMalformedError("record is not 'n value'", line=line_no)
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise CacheMalformedError(f"non-integer record {record!r}", line=line_no) from None
        if f"{n} {value}" != record:
            # rejects CRLF remnants, leading zeros, plus signs, stray spaces
            raise CacheMalformedError(f"non-canonical record {record!r}", line=line_no)
        if n != idx + 1:
            raise CacheMalformedError(f"expected record for n={idx + 1}, got n={n}", line=line_no)
        values.append(value)
    try:
        return TauTable(tuple(values))
    except ValueError as exc:
        raise CacheMalformedError(str(exc), line=3) from exc
