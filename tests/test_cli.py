"""CLI behavior: command surface, exit codes, report determinism."""

import argparse
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
from tauprimes.cache import write_cache
from tauprimes.cli import build_parser, main, parse_big_int
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


def test_tau_domain_errors(capsys):
    assert run(capsys, "tau", "0") == (1, "", "error: n must be >= 1\n")
    # Primes above 200000^2: trial division stops at the ceiling and refuses them.
    for n in ("999999999989", "1000000000039"):
        assert run(capsys, "tau", n) == (
            1,
            "",
            f"error: n = {n} has the factor {n}, whose prime factors all exceed the ceiling: "
            "tau(p) is computed only for primes p <= 200000\n",
        ), n


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
    code, _, err = run(capsys, "poly", "--k", "2", "--roots", "--digits", "0")
    assert code == 1 and "precision_digits must be >= 20" in err


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
    code, _, _ = run(capsys, "search", "--pmax", "10", "--kmax", "1", "--vmax", "10", "--csv", "--json")
    assert code == 2


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


def test_output_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("hits.json").write_text(run(capsys, *SEARCH_2000)[1])
    for argv, digest in OUTPUT_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        if argv[0] in JSON_COMMANDS:
            out = strip_timestamp(out)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


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
    # and then fails.  It covers the 10^4 records the congruence suite reads;
    # a shorter cache would be passed over for delta_series.
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
    "bounds.admissible_k_range": {"dps": 50},
    "bounds.attainable_prime_ceiling": {"dps": 50},
    "bounds.bound_report": {"dps": 50},
    "bounds.bvdp_count_bound": {"dps": 50},
    "bounds.decade_margin": {"dps": 50},
    "bounds.dirichlet_partial_sum": {"dps": 50},
    "bounds.pi_bracket": {"dps": 50},
    "bounds.positivity_crossover": {"dps": 50},
    "bounds.progression_decade_floor": {"dps": 50},
    "cache.table_for": {"cache_path": None},
    "cache.tau_at": {"cache_path": None},
    "hecke.hecke_terms": {"modulus": None},
    "series.delta_series": {"ceiling": 200_000},
    "spectral.approximation_quality": {"precision_digits": None},
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


def test_python_dash_m():
    src = str(Path(tauprimes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "tauprimes", "tau", "1"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
