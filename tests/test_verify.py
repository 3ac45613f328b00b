"""Planted faults: each fails exactly the `verify` check that guards against it,
and a named cache stays the table of every suite that `verify --suite all` runs."""

from tauprimes import hecke, verify
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


def test_named_cache_short_of_the_ceiling_stays_in_use(table100k, tmp_path, capsys):
    # A 10^5-record cache with tau(2) off by 2 fails the checks it failed
    # before the Niebur check needed a 2*10^5 table; one that dropped the
    # cache for that table would let the later suites pass.
    path = tmp_path / "taucache.txt"
    write_cache(TauTable((1, -22) + table100k.coeffs[2:]), path)
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
