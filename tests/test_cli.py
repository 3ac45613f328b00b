"""CLI behavior: command surface, exit codes, report determinism."""

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tauprimes
from tauprimes import bounds, cli, spectral
from tauprimes.cache import tau_at, write_cache
from tauprimes.cli import build_parser, main, parse_big_int
from tauprimes.errors import CacheTruncatedError
from tauprimes.series import TauTable, delta_series
from tauprimes.verify import Verifier

LEHMER = "-80561663527802406257321747"
SEARCH_2000 = ("search", "--pmax", "2000", "--kmax", "6", "--vmax", "1e40")

# SHA-256 of report bytes ("generated_utc" line removed, as strip_timestamp
# does), recorded before the nearest-root and per-k bound code was reworked;
# the search, congruence-table and census entries before to_json stopped
# calling json.dumps.
OUTPUT_DIGESTS = {
    ("bounds", "--N", "1e8"): "64f3d45d929812b3d4776bfbe311747603ea27e95c3997c485b99bf25dcc7da3",
    ("bounds", "--N", "1e1000"): "e83c38049625072b6041ecfd9dadce0d4abfb35115362efdca1fbdfac73c547f",
    ("poly", "--k", "300", "--roots"): "8ba972cd881c9e107f312acda6c1506840a33534eef63584435f1d06e59abd89",
    # Recorded before root_set moved to the cosine recurrence: a precision
    # below the default 4k digits, and one far above it.
    ("poly", "--k", "120", "--roots", "--digits", "20"): "1dd09372191a6d4de2650f28f1f98cfa7f76d4132a38c81660dc4a7e46ea868b",
    ("poly", "--k", "40", "--roots", "--digits", "1500"): "88055bc099982b9ef1a3ad4fbadcb1f92f8c1adc2c4ff2008aab097298b0f369",
    SEARCH_2000: "a5b42015123240fbd2cffaf37f9d45a0f3a74af898e2503b35e81b4628eab315",
    # Bools, nulls and witness lists.
    ("congruence-table", "--pmax", "300"): "9c6b55b878cb1cdca344eee6873161493a4766e323a246a218dcb6b60d1e2fe4",
    # Reads SEARCH_2000's report from hits.json in the working directory, so
    # the "from" parameter is fixed.
    ("census", "--from", "hits.json", "--cap", "1e40"): "d50535344e95bad55b9ff26529a0dd6fb62b950499c00a7096f76964e4bb870c",
}
JSON_COMMANDS = ("bounds", "search", "congruence-table", "census")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"generated_utc"' not in line)


def test_parse_big_int():
    assert parse_big_int("123") == 123
    assert parse_big_int("1_000") == 1000
    assert parse_big_int("1e40") == 10**40
    assert parse_big_int("3*10^5") == 300000
    assert parse_big_int("10^12") == 10**12
    for bad in ("1.5", "-3", "ten", "1e2.5", "١٢٣", "１e3"):
        with pytest.raises(Exception):
            parse_big_int(bad)
    for numeral in ("7" * 5000, "7" * 5000 + "e3", "7" * 5000 + "*10^3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_big_int(numeral)


def underscored(digits):
    """digits with underscores at random places."""
    return st.lists(st.booleans(), min_size=len(digits), max_size=len(digits)).map(
        lambda marks: "".join(d + "_" * m for d, m in zip(digits, marks))
    )


# Numerals up to 40 digits and around Python's 4300-digit int parsing limit;
# exponents stay at 10^4 or below, so 10**e is small.
SHORT = st.integers(0, 10**40).map(str)
MANTISSA = st.one_of(SHORT, st.integers(4290, 4310).map(lambda n: "7" * n))
EXPONENT = st.integers(0, 10**4)


@settings(max_examples=300)
@given(
    st.one_of(
        st.text(max_size=40).filter(lambda t: not re.search(r"[eE^][\d_]{5,}", t)),
        st.builds("{}e{}".format, MANTISSA, EXPONENT),
        st.builds("{}*10^{}".format, MANTISSA, EXPONENT),
        MANTISSA,
        SHORT.flatmap(underscored),
    )
)
def test_fuzz_parse_big_int(text):
    # An exact integer or argparse.ArgumentTypeError, nothing else.
    try:
        value = parse_big_int(text)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(value, int) and value >= 0


def test_series_stdout(capsys):
    code, out, _ = run(capsys, "series", "--limit", "5")
    assert code == 0
    assert out == "TAUCACHE 1\n5\n1 1\n2 -24\n3 252\n4 -1472\n5 4830\n"


def test_series_out_writes_cache(capsys, tmp_path):
    target = tmp_path / "t.cache"
    code, out, _ = run(capsys, "series", "--limit", "10", "--out", str(target))
    assert code == 0 and str(target) in out
    assert target.read_text().startswith("TAUCACHE 1\n10\n1 1\n")
    # For a longer table with wider limbs, stdout and --out carry the same bytes.
    target = tmp_path / "t600.cache"
    code, _, _ = run(capsys, "series", "--limit", "600", "--out", str(target))
    assert code == 0
    code, out, _ = run(capsys, "series", "--limit", "600")
    assert code == 0 and out.encode("ascii") == target.read_bytes()


def test_series_out_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "t.cache"
    code, _, err = run(capsys, "series", "--limit", "3", "--out", str(target))
    # The message names the requested path, not mkstemp's "t.cache*.tmp".
    assert code == 1 and f"'{target}'" in err
    assert list(tmp_path.iterdir()) == []


def test_series_over_budget(capsys):
    code, _, err = run(capsys, "series", "--limit", "10000000")
    assert code == 1 and "ceiling" in err


def test_tau_small(capsys):
    for n, expected in ((1, "1"), (2, "-24"), (5, "4830"), (6048, "-241355667795691438080")):
        code, out, _ = run(capsys, "tau", str(n))
        assert code == 0 and out.strip() == expected


def test_tau_multiplicative_route(capsys):
    code, out, _ = run(capsys, "tau", "63001")
    assert code == 0 and out.strip() == LEHMER

    # 10^e = 2^e 5^e lies far past any table; tau(p^e) by its own two-term step.
    def local(tau_p, p, e):
        prev, cur = 1, tau_p
        for _ in range(e):
            prev, cur = cur, tau_p * cur - p**11 * prev
        return prev

    for text, e in (("10^13", 13), ("1e40", 40)):
        code, out, err = run(capsys, "tau", text)
        assert (code, out, err) == (0, f"{local(-24, 2, e) * local(4830, 5, e)}\n", ""), text


def test_tau_uses_cache(capsys, tmp_path):
    path = tmp_path / "t.cache"
    write_cache(delta_series(50), path)
    code, out, _ = run(capsys, "tau", "30", "--cache", str(path))
    assert code == 0 and out.strip() == "-29211840"
    # n beyond the cache falls back to reconstruction
    code, out, _ = run(capsys, "tau", "63001", "--cache", str(path))
    assert code == 0 and out.strip() == LEHMER


def test_tau_env_cache(capsys, tmp_path, monkeypatch):
    write_cache(delta_series(50), tmp_path / "taucache.txt")
    monkeypatch.setenv("TAUPRIMES_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "tau", "49")
    assert code == 0 and out.strip() == "-1696965207"


def test_tau_corrupt_cache(capsys, tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("TAUCACHE 9\n1\n1 1\n")
    code, _, err = run(capsys, "tau", "5", "--cache", str(path))
    assert code == 1 and "version" in err


def test_tau_corrupt_cache_without_primes(capsys, tmp_path):
    # tau 1 needs no tau(p) but still reads the named cache's header.
    path = tmp_path / "bad.cache"
    path.write_text("TAUCACHE 9\n1\n1 1\n")
    code, out, err = run(capsys, "tau", "1", "--cache", str(path))
    assert (code, out) == (1, "") and "format version '9'" in err


def corrupt_cache(path, n=None, lines=None):
    # A 50-record cache; record n gets a leading zero, and only the first `lines` lines are kept.
    write_cache(delta_series(50), path)
    text = path.read_text().splitlines(keepends=True)
    if n:
        text[n + 1] = "0" + text[n + 1]
    path.write_text("".join(text[:lines]))
    return path


def test_tau_cache_parses_only_its_records(capsys, tmp_path):
    # tau(7) and tau(14) = tau(2) tau(7) read records 1, 2 and 7 only.
    path = corrupt_cache(tmp_path / "bad.cache", 4)
    assert run(capsys, "tau", "7", "--cache", str(path)) == (0, "-16744\n", "")
    corrupt_cache(path, 7)
    code, out, err = run(capsys, "tau", "14", "--cache", str(path))
    assert (code, out) == (1, "") and err.count("error:") == 1 and "line 9:" in err
    assert "non-canonical record '07 -16744'" in err


def test_tau_cache_cut_short(capsys, tmp_path):
    # The count line promises 50 records; the file stops after 10.
    path = corrupt_cache(tmp_path / "short.cache", None, lines=12)
    with pytest.raises(CacheTruncatedError) as info:
        tau_at([29], path)
    assert info.value.line == 31
    code, out, err = run(capsys, "tau", "29", "--cache", str(path))
    assert (code, out) == (1, "") and "line 31: file ends after 10 of 50 records" in err
    assert run(capsys, "tau", "7", "--cache", str(path)) == (0, "-16744\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("tau", "30"),
        ("search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27"),
        ("smallest-prime", "--limit", "300"),
        # The bounds suite never reads the table, and still refuses a missing cache.
        ("verify", "--suite", "bounds"),
    ],
    ids=lambda argv: argv[0],
)
def test_missing_cache(capsys, tmp_path, monkeypatch, argv):
    # Only the default cache may be absent: then the command computes.
    monkeypatch.setenv("TAUPRIMES_CACHE_DIR", str(tmp_path))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    # A cache named by --cache must exist (search has no --cache flag).
    if "--cache" in CLI_OPTIONS[argv[0]]:
        missing = tmp_path / "no" / "such.cache"
        assert run(capsys, *argv, "--cache", str(missing)) == (
            1,
            "",
            f"error: [Errno 2] No such file or directory: '{missing}'\n",
        )
    assert list(tmp_path.iterdir()) == []


def test_single_values_over_ceiling(capsys):
    # 200003 is prime, so both commands need tau(200003) itself.
    for argv in (("tau", "200003"), ("prime-power", "200003", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err == (
            "error: tau(200003) is past the ceiling: tau(n) is computed only for n <= 200000\n"
        ), argv


def forbid(monkeypatch, functions, why):
    # Patch every binding, so `from .series import delta_series` users see it too.
    def refuse(*args, **kwargs):
        raise AssertionError(why)

    for name, module in list(sys.modules.items()):
        for function in functions:
            if name.startswith("tauprimes") and hasattr(module, function):
                monkeypatch.setattr(module, function, refuse)


def test_single_values_without_series(capsys, monkeypatch):
    monkeypatch.delenv("TAUPRIMES_CACHE_DIR", raising=False)
    forbid(monkeypatch, ["delta_series"], "a whole tau series computed for a few values")
    for argv, want in (
        (("tau", "63001"), LEHMER),
        (("tau", "6048"), "-241355667795691438080"),
        (("prime-power", "251", "2"), LEHMER),
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, want + "\n"), argv


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # A request that exhausts memory ends like any refusal: exit 1, one line.
    def exhaust(*args, **kwargs):
        raise MemoryError

    for module in (spectral, cli):
        monkeypatch.setattr(module, "root_set", exhaust)
    assert run(capsys, "poly", "--k", "5", "--roots") == (1, "", "error: out of memory\n")


def test_tau_domain_errors(capsys):
    assert run(capsys, "tau", "0") == (1, "", "error: n must be >= 1\n")
    # Primes above 200000^2: trial division stops at the ceiling and refuses them.
    for n in ("999999999989", "1000000000039"):
        assert run(capsys, "tau", n) == (
            1,
            "",
            f"error: n has the factor {n}, whose prime factors all exceed the ceiling: "
            "tau(p) is computed only for primes p <= 200000\n",
        ), n


def test_tau_refusal_past_the_str_limit(capsys):
    # n has over 4300 digits, more than Python turns into a numeral; the refused cofactor has 12.
    code, out, err = run(capsys, "tau", "999999999989*10^5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: n has the factor 999999999989,") and err.endswith("p <= 200000\n")


@pytest.mark.parametrize(
    "argv, k",
    [
        (("prime-power", "2", "1e9"), 10**9),
        (("search", "--pmax", "3", "--kmax", "1e8", "--vmax", "1"), 10**8),
        # 10^10001 = 2^10001 5^10001: its value would have more than 16000 digits.
        (("tau", "10^10001"), 10_001),
    ],
    ids=["prime-power", "search", "tau"],
)
def test_exponent_past_the_ceiling(capsys, monkeypatch, argv, k):
    # Refused before any tau(p) or table is computed.
    forbid(monkeypatch, ["tau_at", "tau_values", "delta_series"], "tau computed for an exponent past the ceiling")
    assert run(capsys, *argv) == (1, "", f"error: k = {k} exceeds the ceiling 10000\n")


def test_bounds_window_past_the_ceiling(capsys, monkeypatch):
    # log_4(10^1000000) = 1660964.04..., so the k window would end at 1660964.
    forbid(monkeypatch, ["admissible_k_range", "_bvdp"], "bounds evaluated for a window past the ceiling")
    assert run(capsys, "bounds", "--N", "1e1000000") == (1, "", "error: k = 1660964 exceeds the ceiling 10000\n")


def test_prime_power(capsys):
    code, out, _ = run(capsys, "prime-power", "3", "2")
    assert code == 0 and out.strip() == "-113643"
    code, out, _ = run(capsys, "prime-power", "2", "0")
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, "prime-power", "4", "2")
    assert code == 1 and "not prime" in err


def test_big_int_forms_for_small_arguments(capsys):
    code, out, _ = run(capsys, "prime-power", "3", "1e0")
    assert code == 0 and out.strip() == "252"
    args = ("search", "--pmax", "300", "--vmax", "1e27")
    code, plain, _ = run(capsys, *args, "--kmax", "1")
    assert code == 0
    code, sci, _ = run(capsys, *args, "--kmax", "1e0")
    assert code == 0 and strip_timestamp(sci) == strip_timestamp(plain)


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "59")
    assert code == 0 and out.strip() == "PrincipalForm a=6 b=1"
    assert run(capsys, "classify", "5")[1].strip() == "NonResidue"
    assert run(capsys, "classify", "2")[1].strip() == "SplitNonPrincipal"
    assert run(capsys, "classify", "23")[1].strip() == "IsTwentyThree"
    code, _, err = run(capsys, "classify", "60")
    assert code == 1 and "not prime" in err


def test_congruence_table_big_int_pmax(capsys):
    code, plain, _ = run(capsys, "congruence-table", "--pmax", "100")
    assert code == 0
    code, sci, _ = run(capsys, "congruence-table", "--pmax", "1e2")
    assert code == 0
    assert json.loads(sci)["payload"] == json.loads(plain)["payload"]


def test_congruence_table(capsys):
    code, out, _ = run(capsys, "congruence-table", "--pmax", "100")
    assert code == 0
    doc = json.loads(out)
    entries = doc["payload"]["entries"]
    assert len(entries) == 25
    for entry in entries:
        if entry["p"] == 23:
            assert entry["predicted_residue"] is None and entry["match"] is None
        else:
            assert entry["match"] is True
    e59 = next(e for e in entries if e["p"] == 59)
    assert e59["class23"] == {"tag": "PrincipalForm", "witness": [6, 1]}
    assert e59["predicted_residue"] == e59["actual_residue"] == 2


def test_poly_output(capsys):
    assert run(capsys, "poly", "--k", "0")[1].strip() == "1"
    assert run(capsys, "poly", "--k", "1")[1].strip() == "y - x"
    assert run(capsys, "poly", "--k", "2")[1].strip() == "y^2 - 3*x*y + x^2"
    code, out, _ = run(capsys, "poly", "--k", "3")
    assert out.strip() == "y^3 - 5*x*y^2 + 6*x^2*y - x^3"


def test_poly_roots(capsys):
    code, out, _ = run(capsys, "poly", "--k", "2", "--roots", "--digits", "30")
    lines = out.strip().splitlines()
    assert lines[0] == "y^2 - 3*x*y + x^2"
    assert lines[1].startswith("alpha[1] = 2.618033988749894848204586834")
    assert lines[2].startswith("alpha[2] = 0.381966011250105151795413165")
    # Refused before G_k is printed, so stdout stays empty.
    code, out, err = run(capsys, "poly", "--k", "2", "--roots", "--digits", "0")
    assert (code, out) == (1, "") and "precision_digits must be >= 20" in err
    # Past the ceiling the value itself is not printed: 10^5000 has no short numeral.
    for digits in ("40001", "10^5000"):
        code, out, err = run(capsys, "poly", "--k", "2", "--roots", "--digits", digits)
        assert (code, out, err) == (1, "", "error: precision_digits exceeds the ceiling 40000\n")
    code, out, err = run(capsys, "poly", "--k", "0", "--roots")
    assert (code, out) == (1, "") and "--roots needs k >= 1" in err
    for digits in ("0", "30"):
        assert run(capsys, "poly", "--k", "3", "--digits", digits) == (1, "", "error: --digits needs --roots\n")


def test_search_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27")
    assert code == 0
    code, out2, _ = run(capsys, "search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27")
    assert strip_timestamp(out1) == strip_timestamp(out2)
    doc = json.loads(out1)
    hits = doc["payload"]["hits"]
    lehmer = [h for h in hits if h["p"] == 251]
    assert lehmer and lehmer[0]["value"] == LEHMER and lehmer[0]["verdict"] == "ProbablePrime"
    assert all(isinstance(h["value"], str) for h in hits)


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,k,exponent,value,residue23,class23,witness_a,witness_b,verdict"
    lehmer_rows = [l for l in lines if l.startswith("251,")]
    assert lehmer_rows == [f"251,1,2,{LEHMER},1,NonResidue,,,ProbablePrime"]


def test_search_flag_conflict(capsys):
    # JSON is the only other format, so there is no --json flag to conflict with --csv.
    code, _, err = run(capsys, "search", "--pmax", "10", "--kmax", "1", "--vmax", "10", "--json")
    assert code == 2 and "unrecognized arguments: --json" in err


def test_smallest_prime(capsys, cache_file_100k):
    code, out, _ = run(capsys, "smallest-prime", "--limit", "63001", "--cache", str(cache_file_100k))
    assert code == 0 and out.strip() == f"63001 {LEHMER}"
    code, out, _ = run(capsys, "smallest-prime", "--limit", "63000", "--cache", str(cache_file_100k))
    assert code == 0 and out.strip() == "none"


def test_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", "--N", "64")
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["k_hi"] == "3.0"
    assert payload["per_k_bound"] == {}
    assert payload["density"] == "9/11"
    assert len(payload["caveats"]) == 3
    code, out, _ = run(capsys, "bounds", "--N", "10^8")
    doc = json.loads(out)
    assert list(doc["payload"]["per_k_bound"]) == [str(k) for k in range(3, 14)]
    # 4^5 and 4^7: each window stops below j, however k_hi = j rounds.
    for n, top in (("1024", 4), ("16384", 6)):
        code, out, _ = run(capsys, "bounds", "--N", n)
        assert list(json.loads(out)["payload"]["per_k_bound"]) == [str(k) for k in range(3, top + 1)], n


def test_output_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("hits.json").write_text(run(capsys, *SEARCH_2000)[1])
    for argv, digest in OUTPUT_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        if argv[0] in JSON_COMMANDS:
            out = strip_timestamp(out)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("order", [("1e8", "1e1000"), ("1e1000", "1e8")], ids=["ascending", "descending"])
def test_bounds_digests_in_either_order(capsys, order):
    # From an empty per-k memo: ascending fills it in two steps; descending
    # fills it once, then reads the smaller window from it.
    bounds._bvdp.cache_clear()
    for n in order:
        argv = ("bounds", "--N", n)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == OUTPUT_DIGESTS[argv], n


def test_census_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27")
    hits_file = tmp_path / "hits.json"
    hits_file.write_text(out)
    code, out, _ = run(capsys, "census", "--from", str(hits_file), "--cap", "1e27")
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["total"] == 1
    assert payload["counts"]["1"] == 1
    assert sum(int(v) for v in payload["counts"].values()) == 1
    assert payload["excluded_class_hits"] == []
    assert payload["footnote_anomalies"] == []
    # tighter cap excludes the only probable prime
    code, out, _ = run(capsys, "census", "--from", str(hits_file), "--cap", "10^20")
    assert json.loads(out)["payload"]["total"] == 0


# hit_to_dict of tau(2^2) in the search grid.
TAU4_HIT = {
    "p": 2,
    "k": 1,
    "exponent": 2,
    "value": "-1472",
    "residue23": 0,
    "class23": {"tag": "SplitNonPrincipal", "witness": None},
    "verdict": "Composite",
}
# hit_to_dict of tau(59^2) in search --pmax 60 --kmax 1 --vmax 1e30: 59 = 6^2 + 23 * 1^2.
TAU59SQ_HIT = {
    "p": 59,
    "k": 1,
    "exponent": 2,
    "value": "-3228052989507855059",
    "residue23": 3,
    "class23": {"tag": "PrincipalForm", "witness": [6, 1]},
    "verdict": "Composite",
}


def principal_witness(witness):
    return {"payload": {"hits": [{**TAU59SQ_HIT, "class23": {"tag": "PrincipalForm", "witness": witness}}]}}


def search_report(pmax, vmax, edit):
    """A callable that makes search --pmax pmax --kmax 1 --vmax vmax's report and edits its hits."""

    def make(capsys):
        doc = json.loads(run(capsys, "search", "--pmax", pmax, "--kmax", "1", "--vmax", vmax)[1])
        edit(doc["payload"]["hits"])
        return doc

    return make


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1, 2], "payload.hits"),
        ({"payload": {"hits": [{**TAU4_HIT, "p": [1]}]}}, "field 'p' must be int"),
        ({"hits": []}, "payload.hits"),
        ({"payload": {"hits": [{n: v for n, v in TAU4_HIT.items() if n != "k"}]}}, "no field 'k'"),
        # Each hit is rebuilt by the search, and the first field that differs
        # from the rebuilt hit is named: here residue23, as -1472 = -64 * 23.
        ({"payload": {"hits": [{**TAU4_HIT, "residue23": 99, "verdict": "ProbablePrime"}]}}, "'residue23' is 99"),
        ({"payload": {"hits": [{**TAU4_HIT, "residue23": 5}]}}, "'residue23' is 5, but p=2, k=1 gives 0"),
        ({"payload": {"hits": [{**TAU4_HIT, "exponent": 7}]}}, "'exponent' is 7, but p=2, k=1 gives 2"),
        ({"payload": {"hits": [{**TAU4_HIT, "exponent": "2"}]}}, "field 'exponent' must be int, not str"),
        ({"payload": {"hits": [{n: v for n, v in TAU4_HIT.items() if n != "exponent"}]}}, "no field 'exponent'"),
        # class23 must be classify_mod23(p), witness included.
        (
            principal_witness([1, 2, 3]),
            "'class23' is {'tag': 'PrincipalForm', 'witness': [1, 2, 3]}, but p=59, k=1 gives "
            "{'tag': 'PrincipalForm', 'witness': [6, 1]}",
        ),
        (principal_witness([]), "'class23' is {'tag': 'PrincipalForm', 'witness': []}, but"),
        (principal_witness([5, 5]), "'class23' is {'tag': 'PrincipalForm', 'witness': [5, 5]}, but"),
        ({"payload": {"hits": [{**TAU4_HIT, "k": 0, "exponent": 0}]}}, "'k' is 0, not in 1..10000"),
        # Refused before any row is built: the recurrence would run 10^9 steps.
        (
            {"payload": {"hits": [{**TAU4_HIT, "k": 10**9, "exponent": 2 * 10**9}]}},
            "'k' is 1000000000, not in 1..10000",
        ),
        ({"payload": {"hits": [{**TAU4_HIT, "p": 4}]}}, "'p' is 4, not a prime <= 200000"),
        ({"payload": {"hits": [{**TAU4_HIT, "verdict": "Bogus"}]}}, "'verdict' is 'Bogus', not one of"),
        # An even value above 2 is composite, whatever the document says.
        (
            {"payload": {"hits": [{**TAU4_HIT, "verdict": "ProbablePrime"}]}},
            "'verdict' is 'ProbablePrime', but p=2, k=1 gives 'Composite'",
        ),
        # tau(2^2) forged to -1473, with its residue and verdict made to fit.
        (
            {"payload": {"hits": [{**TAU4_HIT, "value": "-1473", "residue23": 22, "verdict": "ProbablePrime"}]}},
            "'value' is '-1473', but p=2, k=1 gives '-1472'",
        ),
        # So is an odd value's verdict: tau(3^2) = -113643 = -3 * 37881.
        (
            search_report("3", "1e10", lambda hits: hits[1].update(verdict="ProbablePrime")),
            "'verdict' is 'ProbablePrime', but p=3, k=1 gives 'Composite'",
        ),
        (
            search_report("300", "1e27", lambda hits: hits.append(next(h for h in hits if h["p"] == 251))),
            "hit p=251, k=1 is repeated",
        ),
        # tau(2^3000) has over 4300 digits, past Python's int->str limit.
        (
            {"payload": {"hits": [{**TAU4_HIT, "k": 1500, "exponent": 3000, "value": "1", "residue23": 1}]}},
            "'value' is '1', but p=2, k=1500 gives a value of",
        ),
    ],
    ids=[
        "top-level-list",
        "p-is-a-list",
        "no-payload",
        "hit-without-k",
        "residue-out-of-range",
        "residue-not-value-mod-23",
        "exponent-not-2k",
        "exponent-is-a-string",
        "hit-without-exponent",
        "witness-of-three",
        "witness-empty",
        "witness-not-of-p",
        "k-zero",
        "k-above-max",
        "p-not-prime",
        "verdict-unknown",
        "verdict-against-value",
        "value-forged",
        "odd-verdict-forged",
        "hit-repeated",
        "value-past-digit-limit",
    ],
)
def test_census_names_the_malformed_field(capsys, tmp_path, doc, field):
    path = tmp_path / "hits.json"
    path.write_text(json.dumps(doc(capsys) if callable(doc) else doc))
    code, out, err = run(capsys, "census", "--from", str(path), "--cap", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err


def test_census_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "census", "--from", str(tmp_path / "nope.json"), "--cap", "10")
    assert code == 1


def test_verify_quick_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "congruence")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.strip().endswith("4/4 checks passed")


def test_verify_corrupt_cache(capsys, tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("TAUCACHE 9\n1\n1 1\n")
    code, out, err = run(capsys, "verify", "--suite", "congruence", "--cache", str(path))
    assert code == 1 and "version" in err
    assert "checks passed" not in out


def test_verifier_ignores_env_cache(capsys, tmp_path, monkeypatch):
    # A parseable cache with a wrong tau(2): verify checks it only when named,
    # and then fails.  Its records stand in for delta_series's wherever it
    # holds them, so any length that covers tau(2) would fail the same way.
    path = tmp_path / "taucache.txt"
    wrong = TauTable((1, -25) + delta_series(10_000).coeffs[2:])
    write_cache(wrong, path)
    monkeypatch.setenv("TAUPRIMES_CACHE_DIR", str(tmp_path))
    assert Verifier().table(300) == delta_series(300)
    assert Verifier(path).table(300) == wrong.truncated(300)
    code, out, _ = run(capsys, "verify", "--suite", "congruence", "--cache", str(path))
    assert code == 1
    assert "[FAIL] congruence: class determines tau(p) mod 23" in out


def test_commands_read_env_cache(capsys, tmp_path, monkeypatch):
    commands = (
        ("search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27"),
        ("prime-power", "3", "2"),
        ("congruence-table", "--pmax", "300"),
    )
    usual = [strip_timestamp(run(capsys, *argv)[1]) for argv in commands]
    write_cache(delta_series(300), tmp_path / "taucache.txt")
    monkeypatch.setenv("TAUPRIMES_CACHE_DIR", str(tmp_path))
    forbid(monkeypatch, ["delta_series", "tau_values"], "tau computed although the cache covers the request")
    for argv, want in zip(commands, usual):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and strip_timestamp(out) == want, argv


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "tau", "١٢٣")[0] == 2  # non-ASCII digits
    assert run(capsys, "series")[0] == 2  # missing --limit
    assert run(capsys, "bounds", "--N", "1.5")[0] == 2
    assert run(capsys)[0] == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip().startswith("tauprimes")


# main shares one parser between calls; nothing one call parses may leak into the next.
def test_reused_parser_calls_are_independent(capsys, tmp_path, monkeypatch):
    search = ("search", "--pmax", "300", "--kmax", "1", "--vmax", "1e27")
    code, out, _ = run(capsys, *search, "--csv")
    assert code == 0 and out.startswith("p,k,exponent,")
    code, out, _ = run(capsys, *search)
    assert code == 0 and json.loads(out)["command"] == "search"

    # A cache with a wrong tau(7) shows whether a call read it.
    monkeypatch.delenv("TAUPRIMES_CACHE_DIR", raising=False)
    right = delta_series(10)
    path = tmp_path / "wrong.cache"
    write_cache(TauTable(right.coeffs[:6] + (right.coeffs[6] + 1,) + right.coeffs[7:]), path)
    code, out, _ = run(capsys, "tau", "6048", "--cache", str(path))
    assert code == 0 and out.strip() != "-241355667795691438080"
    code, out, _ = run(capsys, "tau", "6048")
    assert code == 0 and out.strip() == "-241355667795691438080"

    assert run(capsys, "tau", "6048", "--no-such-flag")[0] == 2
    assert run(capsys, "tau", "30") == (0, "-29211840\n", "")

    first, second = run(capsys, "--version"), run(capsys, "--version")
    assert first == second and first[0] == 0 and first[1].startswith("tauprimes")


def test_parser_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    for argv in (("tau", "30"), ("prime-power", "3", "2"), ("no-such-command",)):
        run(capsys, *argv)
    # One root parser and one parser per command, each made once.
    assert built.count("tauprimes") == 1 and len(set(built)) == len(built) > 1


# Every parameter with a default of the public functions, by module.  A new
# option, or a dropped one, is a decision: make it here as well.
PUBLIC_OPTIONS = {
    "cache.table_for": {"cache_path": None},
    "cache.tau_at": {"cache_path": None},
    "series.delta_series": {"ceiling": 200_000},
    "spectral.min_gap": {"precision_digits": None},
    "spectral.root_set": {"precision_digits": None},
}


def test_public_options_are_pinned():
    functions = {}
    for name in tauprimes.__all__:
        obj = getattr(tauprimes, name)
        if inspect.ismodule(obj):
            for attr, f in vars(obj).items():
                if inspect.isfunction(f) and f.__module__ == obj.__name__ and not attr.startswith("_"):
                    functions[f"{name}.{attr}"] = f
        elif inspect.isfunction(obj):
            functions[f"{obj.__module__.removeprefix('tauprimes.')}.{name}"] = obj
    options = {}
    for qualname, f in functions.items():
        for param in inspect.signature(f).parameters.values():
            if param.default is not param.empty:
                options.setdefault(qualname, {})[param.name] = param.default
    assert options == PUBLIC_OPTIONS


def mpmath_uses(tree):
    """(line, dotted name, inside an annotation) for each use of mpmath in a module."""
    annotated = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                annotated.update(id(n) for n in ast.walk(annotation))
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "mpmath":
            name, top = "mpmath", node
            while isinstance(parents.get(id(top)), ast.Attribute):
                top = parents[id(top)]
                name += "." + top.attr
            yield node.lineno, name, id(node) in annotated
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            for alias in node.names:
                yield node.lineno, f"from {node.module} import {alias.name}", False


def test_one_precision_path():
    # mpmath.mp's precision is one setting for the whole process, so the
    # package computes only on mpmath contexts it owns: no workdps, no read or
    # write of mpmath.mp.prec or dps, no function of the global context, nor
    # of mpmath.iv's; verify makes its own interval context.
    allowed = {
        "mpmath.MPContext",
        "mpmath.mp.make_mpf",
        "mpmath.nstr",
        "from mpmath import libmp",
        "from mpmath.ctx_iv import MPIntervalContext",
    }
    src = Path(tauprimes.__file__).parent
    uses = {
        f"{path.name}:{line} {name}": name in allowed or (name == "mpmath.mpf" and annotated)
        for path in sorted(src.glob("*.py"))
        for line, name, annotated in mpmath_uses(ast.parse(path.read_text()))
    }
    assert [use for use, ok in uses.items() if not ok] == []
    # The walk sees each of those forms.
    code = "import mpmath\nx: mpmath.mpf = mpmath.mpf(1)\nwith mpmath.workdps(5): mpmath.mp.prec\n"
    assert sorted((line, name) for line, name, annotated in mpmath_uses(ast.parse(code)) if not annotated) == [
        (2, "mpmath.mpf"),
        (3, "mpmath.mp.prec"),
        (3, "mpmath.workdps"),
    ]


def test_exact_modules_import_no_mpmath():
    # These modules are exact integer arithmetic; the reals of the local
    # roots are spectral's, and bounds' reals are its own.
    src = Path(tauprimes.__file__).parent
    offenders = []
    for name in ("series", "cache", "hecke", "congruence", "primality", "search", "errors"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{name}.py:{node.lineno}" for m in modules if m.split(".")[0] == "mpmath"]
    assert offenders == []


# The functions of spectral.py that may hold raw libmp values: the one
# fixed-point cosine kernel and the roots it squares.
LIBMP_KERNEL = {"_fixed_trig", "_alphas"}


def libmp_uses(tree):
    """(line, enclosing top-level def or class, else None) of each use of
    libmp in a module, and of each import of it but a top-level `from mpmath
    import libmp`."""
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if getattr(node, "id", None) == "libmp" or getattr(node, "attr", None) == "libmp":
                yield node.lineno, where
                continue
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                allowed = node is top and node.module == "mpmath"
                names = [
                    f"{node.module}.{a.name}" for a in node.names if not (allowed and a.name == "libmp" and not a.asname)
                ]
            else:
                continue
            if any(name.startswith("mpmath.libmp") for name in names):
                yield node.lineno, where


def test_one_raw_libmp_kernel():
    # spectral's fixed-point cosines are the one kernel on raw libmp values;
    # everything else computes in mpf, so the operators round for it.
    src = Path(tauprimes.__file__).parent
    pattern = re.compile(r"mpmath\.libmp|import .*\blibmp\b")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []
    # Inside spectral.py, only the kernel's functions touch libmp, and each does.
    uses = list(libmp_uses(ast.parse((src / "spectral.py").read_text())))
    assert [f"spectral.py:{line} {where}" for line, where in uses if where not in LIBMP_KERNEL] == []
    assert {where for _, where in uses} == LIBMP_KERNEL
    # The walk sees each of those forms.
    code = (
        "from mpmath import libmp\n"
        "from mpmath.libmp import mpf_mul\n"
        "import mpmath.libmp as lm\n"
        "X = libmp.fone\n"
        "def f():\n    return mpmath.libmp.fzero\n"
        "def g():\n    from mpmath import libmp\n"
    )
    assert list(libmp_uses(ast.parse(code))) == [(2, None), (3, None), (4, None), (6, "f"), (8, "g")]


# Each subcommand's flags and positionals ("" is the top level), so a new one is a deliberate edit.
CLI_OPTIONS = {
    "": ("--version",),
    "series": ("--limit", "--out"),
    "tau": ("n", "--cache"),
    "prime-power": ("p", "k"),
    "classify": ("p",),
    "congruence-table": ("--pmax",),
    "poly": ("--k", "--roots", "--digits"),
    "search": ("--pmax", "--kmax", "--vmax", "--csv"),
    "smallest-prime": ("--limit", "--cache"),
    "bounds": ("--N",),
    "census": ("--from", "--cap"),
    "verify": ("--suite", "--cache"),
}


def test_cli_options_are_pinned():
    def options(parser):
        skip = (argparse._HelpAction, argparse._SubParsersAction)
        return tuple(s for a in parser._actions if not isinstance(a, skip) for s in a.option_strings or [a.dest])

    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {"": options(parser), **{name: options(p) for name, p in sub.choices.items()}} == CLI_OPTIONS


def test_python_dash_m():
    src = str(Path(tauprimes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "tauprimes", "tau", "1"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
