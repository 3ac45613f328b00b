"""Planted faults: each fails exactly the `verify` check that guards against it,
and a named cache stays the table of every suite that `verify --suite all` runs."""

import sys

import pytest

from tauprimes import hecke, series, verify
from tauprimes.cache import write_cache
from tauprimes.cli import main
from tauprimes.series import TauTable
from tauprimes.verify import Verifier


def failing(cache_path):
    return {r.name for r in Verifier(cache_path).run("all") if not r.passed}


def test_changed_record_at_the_ceiling_fails_the_niebur_check(table200k, tmp_path):
    # 2*7*23*691 keeps tau(199999)'s parity and its residues mod 7, 23 and
    # 691: no congruence sees the change, only an exact comparison.
    coeffs = list(table200k.coeffs)
    coeffs[199999 - 1] += 2 * 7 * 23 * 691
    path = tmp_path / "taucache.txt"
    write_cache(TauTable(tuple(coeffs)), path)
    assert failing(path) == {"Niebur's formula meets the table at the 2*10^5 ceiling"}


def test_prime_power_one_step_short_fails_the_lehmer_check(cache_file_200k, monkeypatch):
    monkeypatch.setattr(verify, "tau_prime_power", lambda local, k: hecke.tau_prime_power(local, k - 1))
    assert failing(cache_file_200k) == {"Lehmer value tau(63001)"}


@pytest.mark.parametrize("length", [2000, 100_000])
def test_named_cache_short_of_the_ceiling_stays_in_use(length, table100k, tmp_path, capsys):
    # A cache with tau(2) off by 2 fails the same five checks at any length:
    # it supplies the records it holds and delta_series only the rest, so no
    # suite drops it for a longer table.
    path = tmp_path / "taucache.txt"
    write_cache(TauTable((1, -22) + table100k.coeffs[2:length]), path)
    code = main(["verify", "--suite", "all", "--cache", str(path)])
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("[FAIL] ")]
    assert code == 1 and len(failed) == 5 and out.endswith("20/25 checks passed\n")
    for name in (
        "series: naive Euler-product oracle, n <= 500",
        "series: Hecke recurrence + multiplicativity, n <= 10^4",
        "congruence: class determines tau(p) mod 23, p < 10^4",
        "congruence: recurrence mod 23 vs exact big-int, p < 300, k <= 100",
        "search: tau(4) and tau(9) surface as composite hits",
    ):
        assert any(line.startswith(f"[FAIL] {name} (") for line in failed), name


def test_series_suite_builds_the_series_once(monkeypatch):
    # The ceiling table comes first, so every later table is a slice of it;
    # only the expansion head and the 500-term oracle compute their own.
    limits = []
    compute = series.delta_series

    def counted(limit, **kwargs):
        limits.append(limit)
        return compute(limit, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tauprimes") and hasattr(module, "delta_series"):
            monkeypatch.setattr(module, "delta_series", counted)
    Verifier().run("series")
    assert [limit for limit in limits if limit > 500] == [200_000]
