"""Command line interface.

Exit codes: 0 success, 1 domain error (bad values, ceiling refusals,
unreadable caches, running out of memory), 2 usage error (unknown flags or
malformed arguments).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import mpmath

from . import __version__
from .bounds import bound_report
from .cache import dump_cache, table_for, tau_at, write_cache
from .congruence import Class23Tag, classify_mod23, tau_mod23
from .hecke import PrimeLocalData, _check_max_k, factorize, tau_of_n, tau_prime_power
from .primality import is_probable_prime, primes_up_to
from .reports import (
    bound_report_to_dict,
    class23_to_dict,
    census_to_dict,
    envelope,
    hit_to_dict,
    hits_from_dicts,
    hits_to_csv,
    to_json,
)
from .search import census_by_residue, search_prime_tau, smallest_prime_tau
from .series import delta_series
from .spectral import EvenIndexPoly, even_index_poly, root_set
from .verify import SUITES, Verifier, format_results


def parse_big_int(text: str) -> int:
    """Exact integer from '123', '1_000', '1e40', or '3*10^40' style input."""
    t = text.replace("_", "")
    try:
        if re.fullmatch(r"[0-9]+", t):
            return int(t)
        m = re.fullmatch(r"([0-9]+)[eE]([0-9]+)", t)
        if m:
            return int(m.group(1)) * 10 ** int(m.group(2))
        m = re.fullmatch(r"(?:([0-9]+)\*)?10\^([0-9]+)", t)
        if m:
            return (int(m.group(1)) if m.group(1) else 1) * 10 ** int(m.group(2))
    except ValueError:
        # int() refuses numerals longer than sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"numeral of {len(t)} characters is longer than Python parses; write it as a*10^e"
        ) from None
    raise argparse.ArgumentTypeError(f"cannot parse {text!r} as an exact integer")


def format_poly(poly: EvenIndexPoly) -> str:
    if poly.k == 0:
        return "1"
    parts = []
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        xe, ye = i, poly.k - i
        factors = []
        if abs(c) != 1 or (xe == 0 and ye == 0):
            factors.append(str(abs(c)))
        if xe:
            factors.append("x" if xe == 1 else f"x^{xe}")
        if ye:
            factors.append("y" if ye == 1 else f"y^{ye}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def _require_prime(p: int) -> None:
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")


def _cmd_series(args) -> int:
    table = delta_series(args.limit)
    if args.out:
        write_cache(table, args.out)
        print(f"wrote {args.out} with tau(1..{table.limit})")
    else:
        dump_cache(table, sys.stdout)
    return 0


def _cmd_tau(args) -> int:
    f = factorize(args.n)
    for _, e in f.factors:
        _check_max_k(e)  # before any tau(p) is looked up or computed
    print(tau_of_n(f, tau_at((p for p, _ in f.factors), args.cache)))
    return 0


def _cmd_prime_power(args) -> int:
    _check_max_k(args.k)
    _require_prime(args.p)
    print(tau_prime_power(PrimeLocalData(args.p, tau_at([args.p])[args.p]), args.k))
    return 0


def _cmd_classify(args) -> int:
    _require_prime(args.p)
    cls = classify_mod23(args.p)
    if cls.witness is not None:
        a, b = cls.witness
        print(f"{cls.tag.value} a={a} b={b}")
    else:
        print(cls.tag.value)
    return 0


def _cmd_congruence_table(args) -> int:
    if args.pmax < 2:
        raise ValueError("--pmax must be >= 2")
    table = table_for(args.pmax)
    entries = []
    for p in primes_up_to(args.pmax):
        cls = classify_mod23(p)
        want = None if cls.tag is Class23Tag.IS_TWENTY_THREE else tau_mod23(cls, 1)
        got = table[p] % 23
        entries.append(
            {
                "p": p,
                "class23": class23_to_dict(cls),
                "predicted_residue": want,
                "actual_residue": got,
                "match": (want == got) if want is not None else None,
            }
        )
    doc = envelope("congruence-table", {"pmax": args.pmax}, {"entries": entries})
    sys.stdout.write(to_json(doc))
    return 0


def _cmd_poly(args) -> int:
    # Roots first, so a bad --roots/--digits exits before anything is written.
    if args.digits is not None and not args.roots:
        raise ValueError("--digits needs --roots")
    if args.roots and args.k < 1:
        raise ValueError("--roots needs k >= 1")
    rs = root_set(args.k, args.digits) if args.roots else None
    print(format_poly(even_index_poly(args.k)))
    if rs is not None:
        for j, alpha in enumerate(rs.alphas, start=1):
            print(f"alpha[{j}] = {mpmath.nstr(alpha, rs.precision_digits)}")
    return 0


def _cmd_search(args) -> int:
    _check_max_k(args.kmax)  # before the table is built
    hits = search_prime_tau(args.pmax, args.kmax, args.vmax, table=table_for(max(args.pmax, 1)))
    if args.csv:
        sys.stdout.write(hits_to_csv(hits))
        return 0
    params = {
        "pmax": args.pmax,
        "kmax": args.kmax,
        "vmax": str(args.vmax),
    }
    doc = envelope("search", params, {"count": len(hits), "hits": [hit_to_dict(h) for h in hits]})
    sys.stdout.write(to_json(doc))
    return 0


def _cmd_smallest_prime(args) -> int:
    if args.limit < 1:
        raise ValueError("--limit must be >= 1")
    table = table_for(args.limit, args.cache)
    found = smallest_prime_tau(args.limit, table=table)
    if found is None:
        print("none")
    else:
        print(f"{found[0]} {found[1]}")
    return 0


def _cmd_bounds(args) -> int:
    report = bound_report(args.n)
    doc = envelope("bounds", {"N": str(args.n)}, bound_report_to_dict(report))
    sys.stdout.write(to_json(doc))
    return 0


def _cmd_census(args) -> int:
    with open(args.from_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict) or not isinstance(payload.get("hits"), list):
        raise ValueError(f"{args.from_path} is not a search report: it needs a list at payload.hits")
    report = census_by_residue(hits_from_dicts(payload["hits"]), args.cap)
    out = envelope(
        "census",
        {"from": str(args.from_path), "cap": str(args.cap)},
        census_to_dict(report),
    )
    sys.stdout.write(to_json(out))
    return 0


def _cmd_verify(args) -> int:
    results = Verifier(args.cache).run(args.suite)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by later ones: parsing leaves
    it unchanged, and messages go to the sys.stdout/sys.stderr of the moment."""
    parser = argparse.ArgumentParser(
        prog="tauprimes",
        description="Exact Ramanujan tau tables, congruences, prime-value search, and bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="tabulate tau(1..N)")
    p.add_argument("--limit", type=parse_big_int, required=True)
    p.add_argument("--out", help="write a TAUCACHE file instead of printing")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tau", help="tau(N) via cache or multiplicative reconstruction")
    p.add_argument("n", type=parse_big_int)
    p.add_argument("--cache", help="TAUCACHE file to consult first")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("prime-power", help="tau(P^K) by the local recurrence")
    p.add_argument("p", type=parse_big_int)
    p.add_argument("k", type=parse_big_int)
    p.set_defaults(func=_cmd_prime_power)

    p = sub.add_parser("classify", help="mod-23 class of a prime")
    p.add_argument("p", type=parse_big_int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("congruence-table", help="predicted vs actual tau(p) mod 23")
    p.add_argument("--pmax", type=parse_big_int, required=True)
    p.set_defaults(func=_cmd_congruence_table)

    p = sub.add_parser("poly", help="even-index polynomial G_k and optionally its roots")
    p.add_argument("--k", type=parse_big_int, required=True)
    p.add_argument("--roots", action="store_true")
    p.add_argument("--digits", type=parse_big_int)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("search", help="prime values among tau(p^{2k})")
    p.add_argument("--pmax", type=parse_big_int, required=True)
    p.add_argument("--kmax", type=parse_big_int, required=True)
    p.add_argument("--vmax", type=parse_big_int, required=True)
    p.add_argument("--csv", action="store_true", help="CSV rows instead of the JSON envelope")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("smallest-prime", help="first n with tau(n) prime")
    p.add_argument("--limit", type=parse_big_int, required=True)
    p.add_argument("--cache")
    p.set_defaults(func=_cmd_smallest_prime)

    p = sub.add_parser("bounds", help="explicit count bounds at ceiling N")
    p.add_argument("--N", dest="n", type=parse_big_int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("census", help="residue census of saved search hits")
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--cap", type=parse_big_int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run a reproduction suite")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--cache", help="TAUCACHE file to reuse for the heavy suites")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # A backstop: the frames that held the request are unwound by now.
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
