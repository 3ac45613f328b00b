"""TAUCACHE file format: round-trips, atomicity, strict parse errors."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tauprimes.cache import default_cache_path, read_cache, table_for, tau_at, write_cache
from tauprimes.errors import (
    CacheError,
    CacheMalformedError,
    CacheTruncatedError,
    CacheVersionError,
)
from tauprimes.series import delta_series

GOOD = "TAUCACHE 1\n3\n1 1\n2 -24\n3 252\n"


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def test_round_trip(tmp_path):
    table = delta_series(300)
    path = tmp_path / "t.cache"
    write_cache(table, path)
    assert read_cache(path).coeffs == table.coeffs


def test_round_trip_large_is_byte_identical(table100k, cache_file_100k, tmp_path):
    again = read_cache(cache_file_100k)
    assert again.coeffs == table100k.coeffs
    second = tmp_path / "second.cache"
    write_cache(again, second)
    assert second.read_bytes() == cache_file_100k.read_bytes()


def test_exact_layout(tmp_path):
    path = tmp_path / "t.cache"
    write_cache(delta_series(3), path)
    assert path.read_bytes() == GOOD.encode()


def test_no_temp_files_left(tmp_path):
    path = tmp_path / "t.cache"
    write_cache(delta_series(10), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cache"]


def test_read_good(tmp_path):
    path = tmp_path / "t.cache"
    write_text(path, GOOD)
    table = read_cache(path)
    assert table.limit == 3 and table[2] == -24


def test_missing_final_newline_accepted(tmp_path):
    path = tmp_path / "t.cache"
    write_text(path, GOOD[:-1])
    assert read_cache(path).limit == 3


@pytest.mark.parametrize(
    "text,exc,line",
    [
        ("", CacheMalformedError, 1),
        ("TAUCACHE\n1\n1 1\n", CacheMalformedError, 1),
        ("NOPE 1\n1\n1 1\n", CacheMalformedError, 1),
        ("TAUCACHE 2\n1\n1 1\n", CacheVersionError, 1),
        ("TAUCACHE 1\n", CacheTruncatedError, 2),
        ("TAUCACHE 1\nx\n1 1\n", CacheMalformedError, 2),
        ("TAUCACHE 1\n0\n", CacheMalformedError, 2),
        ("TAUCACHE 1\n" + "9" * 5000 + "\n1 1\n", CacheMalformedError, 2),
        ("TAUCACHE 1\n3\n1 1\n2 -24\n", CacheTruncatedError, 5),
        ("TAUCACHE 1\n1\n1 1\n2 -24\n", CacheMalformedError, 4),
        ("TAUCACHE 1\n1\n1 1\n\n", CacheMalformedError, 4),
        ("TAUCACHE 1\n2\n1 1\n2 -24 9\n", CacheMalformedError, 4),
        ("TAUCACHE 1\n2\n1 1\n2 x\n", CacheMalformedError, 4),
        ("TAUCACHE 1\n2\n1 1\n3 252\n", CacheMalformedError, 4),
        ("TAUCACHE 1\n2\n1 1\r\n2 -24\n", CacheMalformedError, 3),
        ("TAUCACHE 1\n1\n1 7\n", CacheMalformedError, 3),
    ],
)
def test_read_errors(tmp_path, text, exc, line):
    path = tmp_path / "bad.cache"
    write_text(path, text)
    with pytest.raises(exc) as einfo:
        read_cache(path)
    assert einfo.value.line == line
    assert f"line {line}" in str(einfo.value)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_cache(tmp_path / "absent.cache")


def test_default_cache_path(monkeypatch, tmp_path):
    monkeypatch.delenv("TAUPRIMES_CACHE_DIR", raising=False)
    assert default_cache_path() is None
    monkeypatch.setenv("TAUPRIMES_CACHE_DIR", str(tmp_path))
    assert default_cache_path() == tmp_path / "taucache.txt"


def test_table_for_parses_only_needed_records(tmp_path):
    path = tmp_path / "t.cache"
    write_text(path, GOOD.replace("3 252", "3 0252"))
    assert table_for(2, path).coeffs == (1, -24)
    with pytest.raises(CacheMalformedError) as info:
        table_for(3, path)
    assert info.value.line == 5
    with pytest.raises(CacheMalformedError):
        read_cache(path)
    # a cache promising fewer records than requested supplies every one it holds
    with pytest.raises(CacheMalformedError) as info:
        table_for(4, path)
    assert info.value.line == 5
    write_text(path, GOOD.replace("2 -24", "2 -22"))
    assert table_for(4, path).coeffs == (1, -22, 252, -1472)
    write_text(path, "TAUCACHE 9\n3\n")
    with pytest.raises(CacheVersionError):
        table_for(1, path)


def test_tau_at_reads_records(tmp_path):
    table = delta_series(50)
    path = tmp_path / "t.cache"
    write_cache(table, path)
    for n in range(1, 51):
        assert tau_at([n], path) == {n: table[n]}
    assert tau_at(range(1, 51), path) == dict(table.items())
    assert tau_at([], path) == {}


# Replacement lines: any text, numerals, records, numerals at and past
# Python's 4300-digit int parsing limit, and lines with a stray character.
LINE = st.one_of(
    st.text(max_size=30),
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{} {}".format, st.integers(-5, 20), st.integers(-(10**6), 10**6)),
    st.builds(lambda head, n: head + "9" * n, st.sampled_from(["", "2 ", "2 -"]), st.integers(4290, 4310)),
    st.builds(str.__add__, st.sampled_from(GOOD.split("\n")), st.sampled_from(["\r", " ", "\x00", "é", "0"])),
)


def read_only_documented(path, data):
    path.write_bytes(data)
    try:
        read_cache(path)
    except CacheError:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.binary(max_size=200),
        st.builds(bytes.__add__, st.sampled_from([b"TAUCACHE 1\n", b"TAUCACHE 1\n2\n"]), st.binary(max_size=60)),
    )
)
def test_fuzz_arbitrary_bytes(tmp_path, data):
    # read_cache accepts or raises a CacheError subclass, nothing else.
    read_only_documented(tmp_path / "fuzz.cache", data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(LINE)
def test_fuzz_one_line_mutated(tmp_path, line):
    # Each line of a valid cache in turn replaced by `line`, preceded by it, or dropped.
    good = GOOD.split("\n")
    for at in range(len(good)):
        for lines in (good[:at] + [line] + good[at + 1 :], good[:at] + [line] + good[at:], good[:at] + good[at + 1 :]):
            read_only_documented(tmp_path / "fuzz.cache", "\n".join(lines).encode())
