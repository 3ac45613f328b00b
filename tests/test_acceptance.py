"""Acceptance gate: one check per headline guarantee, one PASS/FAIL line each.

Criteria 2-12 assert on the checks of `tauprimes.verify`, the one
implementation of each: every claimed check must pass and its detail must
show how many items it compared.  This file adds only what `verify` cannot
hold: the CLI routes, the determinism criterion, its own sympy and literal
oracles, and the time limits, each wrapping the `verify` run that covers it.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to watch the lines
stream); every criterion prints exactly one line to the real stdout.
"""

import ast
import hashlib
import json
import sys
import time

import pytest
import sympy

from tauprimes.cache import read_cache, write_cache
from tauprimes.cli import main
from tauprimes.congruence import Class23Tag, classify_mod23, tau_mod23
from tauprimes.verify import SUITES, Verifier, format_results

LEHMER_N = 63001
LEHMER_VALUE = -80561663527802406257321747
# SHA-256 of `verify --suite all`'s stdout, recorded before the suites became
# generators; re-recorded when the density check began to measure the 9/11 on
# the primes to 10^6, the one line that changed, and again when the cyclotomic
# check began to compare exact products and each factor's trigonometric form;
# and again when CI's shell checks moved into verify: the Lehmer line gained its
# prime-power route, the Niebur line was added, and the closing count went from
# 24/24 to 25/25.
VERIFY_ALL_SHA256 = "0e6463adaced265a46493a3b0a9f2c1c722e6b474573e3d99369522a6c283cda"

# criterion -> {verify check name: a piece of its detail, counts included}
CLAIMS = {
    2: {
        "Lehmer value tau(63001)":
            f"series {LEHMER_VALUE}, multiplicative route {LEHMER_VALUE}, prime-power route {LEHMER_VALUE}",
        "first prime tau value appears at n = 63001": f"below: None, at: ({LEHMER_N}, {LEHMER_VALUE})",
    },
    3: {
        "expansion head tau(1..5)": "got (1, -24, 252, -1472, 4830)",
        "naive Euler-product oracle, n <= 500": "500/500 terms of delta_series(500) and 500/500",
        "Niebur's formula meets the table at the 2*10^5 ceiling":
            "tau(p) agrees at 5/5 of p = 199999, 199967, 131071, 65537, 2999",
    },
    4: {
        "Hecke recurrence + multiplicativity, n <= 10^4":
            "0 violations over 51 prime powers and 21935 coprime pairs",
    },
    5: {"parity law, n <= 10^5": "0 violations over 100000 values"},
    6: {"class determines tau(p) mod 23, p < 10^4": "all classes match over 1228 primes"},
    7: {
        "recurrence mod 23 vs exact big-int, p < 300, k <= 100": "0 mismatches over 6161 pairs",
        "periodic residue patterns, k <= 1000": "0 mismatches over 1001 exponents",
    },
    8: {
        "G_k(p^11, tau(p)^2) = tau(p^{2k}), p <= 20, k <= 8": "0 mismatches over 72 values",
        "trig roots annihilate G_k(1, y), k <= 50": "tolerance over 1275 roots",
        "root separation beats (pi/(2k+1))^2, 3 <= k <= 200": "lower bound holds over 396 gaps",
        "no tau ratio approaches a root within 1/(64 h^{5/2})": "threshold never crossed over 450 pairs",
    },
    9: {"cyclotomic magnitudes rebuild |tau(p^{n-1})|, p <= 13, n <= 20": "over 114 values"},
    10: {
        "|tau(p^k)| > 2^k and closed form matches, p <= 50":
            "0 growth violations over 900 comparisons",
    },
    11: {
        "grid p <= 2000, k <= 6, cap 10^40 finds the Lehmer hit": "337 hits, 7 probable primes",
        "census residues admissible, excluded classes need k >= 3": "0 inadmissible of 7 probable primes",
        "index sieve: small factors obey the law, verdicts match is_probable_prime":
            "0 of 545 factors q < 1024 at prime 2k+1 break the law; 0 verdict mismatches over 331 odd values; "
            "the sieve proved 9 of 40",
        "tau(4) and tau(9) surface as composite hits":
            "tau(2^2) = -1472 Composite, tau(3^2) = -113643 Composite",
        "allowed residue sets and the 18 excluded classes": "allowed(k=1)=[0, 1, 3, 22], |excluded|=18",
    },
    12: {
        "formulas agree with independent re-evaluation to 30 digits": "60/60 comparisons",
        "decade growth law, early deficit, and positivity crossover": "turns positive at M = 76",
        "sieve census of a signed class sits in the Dirichlet bracket at 10^6":
            "count 7147 in (5922.1975, 7238.2414)",
        "excluded classes hold the density's share of signed primes to 10^6":
            "128436 of 156994 signed primes l != +-23 = 0.818095, density 9/11 = 0.818182",
    },
}


@pytest.fixture(scope="session")
def verified(cache_file_200k):
    """Each verify suite run once against the shared 2*10^5 cache: {suite: (results, seconds)}."""
    runs = {}
    for suite in SUITES:
        start = time.perf_counter()
        results = Verifier(cache_file_200k).run(suite)
        runs[suite] = (results, time.perf_counter() - start)
    return runs


def checks(verified):
    return {r.name: r for results, _ in verified.values() for r in results}


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d}: {status} - {label}{tail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {label}{tail}"


def report_claims(num, label, verified, ok=True, detail=""):
    """Report criterion num: ok, and each claimed check passed with its counted detail."""
    by_name = checks(verified)
    failed = [
        name for name, piece in CLAIMS[num].items()
        if not (by_name[name].passed and piece in by_name[name].detail)
    ]
    notes = [detail] if detail else []
    notes += [f"failed: {name} ({by_name[name].detail})" for name in failed] or CLAIMS[num].values()
    report(num, label, ok and not failed, "; ".join(notes))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_series_head(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "series", "--limit", "5")
    elapsed = time.perf_counter() - start
    expected = "TAUCACHE 1\n5\n1 1\n2 -24\n3 252\n4 -1472\n5 4830\n"
    ok = code == 0 and out == expected and elapsed < 1.0
    report(1, "series --limit 5 = (1, -24, 252, -1472, 4830)", ok, f"{elapsed:.3f}s")


def test_criterion_02_lehmer_value(capsys, cache_file_100k, verified):
    start = time.perf_counter()
    code_tau, out_tau = run_cli(capsys, "tau", str(LEHMER_N))
    code_sp, out_sp = run_cli(
        capsys, "smallest-prime", "--limit", str(LEHMER_N), "--cache", str(cache_file_100k)
    )
    elapsed = time.perf_counter() - start + verified["series"][1]
    ok = (
        code_tau == 0
        and out_tau.strip() == str(LEHMER_VALUE)
        and code_sp == 0
        and out_sp.strip() == f"{LEHMER_N} {LEHMER_VALUE}"
        and elapsed < 600
    )
    report_claims(2, "tau(63001) is Lehmer's 27-digit prime and the first prime value", verified, ok,
                  f"{elapsed:.1f}s")


def test_criterion_03_brute_force_oracle(verified):
    elapsed = verified["series"][1]
    report_claims(3, "delta_series(500) matches naive expansion; Niebur's formula matches the table at 2*10^5",
                  verified, elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_04_hecke_consistency(verified):
    report_claims(4, "Hecke recurrence and multiplicativity exact for all n <= 10^4", verified)


def test_criterion_05_parity_law(verified):
    report_claims(5, "tau(n) odd iff n is an odd square, n <= 10^5", verified)


def test_criterion_06_mod23_classification(verified):
    # The paper's rule, as literals: tau(p) = 0, 2, -1 mod 23 by class.
    expected_residue = {
        Class23Tag.NON_RESIDUE: 0,
        Class23Tag.PRINCIPAL_FORM: 2,
        Class23Tag.SPLIT_NON_PRINCIPAL: 22,
    }
    rule = {classify_mod23(p).tag: tau_mod23(classify_mod23(p), 1) for p in (5, 59, 2)}
    report_claims(6, "three-way mod-23 rule matches tau(p) for all primes p < 10^4", verified,
                  rule == expected_residue, f"class residues {sorted(rule.values())}")


def test_criterion_07_mod23_prime_powers(verified):
    report_claims(
        7,
        "class recurrence equals exact tau(p^k) mod 23 (p < 300, k <= 100) and k <= 1000 patterns",
        verified,
    )


def test_criterion_08_spectral_identities(verified):
    elapsed = verified["spectral"][1]
    report_claims(8, "even-index polynomial identity, root annihilation, and gap bound", verified,
                  elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_09_cyclotomic_reconstruction(verified):
    report_claims(9, "cyclotomic factor product rebuilds |tau(p^{n-1})| (p <= 13, n <= 20)", verified)


def test_criterion_10_growth(verified):
    report_claims(10, "|tau(p^k)| > 2^k for p <= 50, k <= 60", verified)


def test_criterion_11_census_properties(verified):
    elapsed = verified["search"][1]
    grid = checks(verified)["grid p <= 2000, k <= 6, cap 10^40 finds the Lehmer hit"]
    prime_hits = ast.literal_eval(grid.detail.split(" = ", 1)[1])
    # An odd prime tau(p^{2k}) forces 2k + 1 prime; sympy is the oracle here.
    ok = len(prime_hits) == 7 and all(sympy.isprime(2 * k + 1) for _, k in prime_hits) and elapsed < 900
    report_claims(11, "every probable-prime hit in the p<=2000, k<=6 grid passes admissibility", verified,
                  ok, f"{len(prime_hits)} prime hits, {elapsed:.1f}s")


def test_criterion_12_bounds_arithmetic(verified):
    report_claims(12, "closed-form bounds match independent 30-digit re-evaluation", verified)


def test_criterion_13_determinism(table100k, tmp_path, capsys):
    first = tmp_path / "a.cache"
    second = tmp_path / "b.cache"
    write_cache(table100k, first)
    write_cache(read_cache(first), second)
    cache_ok = first.read_bytes() == second.read_bytes()

    args = ("search", "--pmax", "300", "--kmax", "2", "--vmax", "1e30")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    skim = lambda text: [l for l in text.splitlines() if '"generated_utc"' not in l]
    search_ok = skim(out1) == skim(out2) and json.loads(out1)["payload"]["hits"]
    report(13, "cache round-trip byte-identical at 10^5; search output deterministic",
           cache_ok and bool(search_ok))


def test_every_verify_check_is_claimed(verified):
    names = sorted(r.name for results, _ in verified.values() for r in results)
    claimed = sorted(name for claims in CLAIMS.values() for name in claims)
    assert names == claimed


def test_verify_report_bytes_are_pinned(verified):
    text = format_results([r for results, _ in verified.values() for r in results]) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256
