"""The benchmark's four workloads.

Each workload's ``setup(seed, work, tiny)`` builds what the operations
need (tables, a cache file, inputs drawn from ``random.Random(seed)``)
and returns a list of ``Op``.  ``Op.run`` is the timed call into the
program; ``Op.check`` compares its output with a second route and raises
``Mismatch`` on disagreement.  A check computes its reference once and
keeps it for later passes; it keeps only the values it compares, so
the checks add little to the process's peak memory.

Operations call the program through module attributes
(``series.delta_series``, not a bound name) so the traced run's wrappers
see them.  ``tiny`` shrinks every input for the smoke run.

Inputs are drawn by stratified sampling: each parameter range is cut into
as many strata as there are draws, and the seed picks a point in the
middle quarter of each stratum.  The pairing of strata across parameters is
fixed, so the work of a batch, and of the operations around its median,
barely depends on the seed while every value changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import gcd, isqrt, prod

import mpmath

from tauprimes import bounds, cache, cli, hecke, primality, reports, search, series, spectral
from tauprimes.hecke import PrimeLocalData
from tauprimes.search import Verdict


class Mismatch(Exception):
    """An output disagreed with its check."""


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in the middle quarter of each of ``count`` equal strata of [0, 1)."""
    return [(i + 0.375 + rng.random() / 4) / count for i in range(count)]


def _pairing(count: int, salt: str) -> list[int]:
    """A fixed permutation of range(count), independent of the seed."""
    order = list(range(count))
    random.Random(f"perfbench-{salt}-{count}").shuffle(order)
    return order


def _lerp(lo: float, hi: float, u: float) -> int:
    return int(round(lo + (hi - lo) * u))


def _parse_decimal(text: str) -> int:
    """int(text) for any length, in chunks below the int/str conversion limit."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    if not digits.isdigit():
        raise Mismatch(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def _tau_prime_power(local: PrimeLocalData, m: int) -> int:
    """tau(p^m) by tau(p^j) = tau(p) tau(p^{j-1}) - p^11 tau(p^{j-2}).

    The recurrence is written out here rather than taken from ``hecke``, so
    the check shares no code with the program and survives its refactors.
    Only the final value is kept, so the checks add little to peak memory.
    """
    t, x = local.tau_p, local.p**11
    prev, cur = 1, t
    for _ in range(m):
        prev, cur = cur, t * cur - x * prev
    return prev


def _once(compute):
    """A function returning ``compute()``, computed on the first call only."""
    kept = []

    def value():
        if not kept:
            kept.append(compute())
        return kept[0]

    return value


# -- lehmer ---------------------------------------------------------------

LEHMER_TAU = -80561663527802406257321747

# SHA-256 of the TAUCACHE file for tau(1..limit), recorded once from the
# initial import of the package.
CACHE_DIGESTS = {
    63001: "f945c9aea54cff1a2622f6fc5fdcb078366691ca13fe0f3b000d433bf4dc0c70",
    2000: "694a47576062d65d18d8edc4628d1756459340d5a5ea82c319fb835d9a691d37",
}


def lehmer_setup(seed: int, work, tiny: bool) -> list[Op]:
    """The paper's reproduction; its input is fixed, so the seed is unused."""
    del seed
    limit = 2000 if tiny else 63001
    expected = None if tiny else (63001, LEHMER_TAU)
    q = primality.primes_up_to(isqrt(limit))[-1]
    # Below the packed cutover, so tau(q) comes from the schoolbook route.
    oracle = series.delta_series(q)
    path = work / "lehmer-taucache.txt"

    def run():
        table = series.delta_series(limit)
        cache.write_cache(table, path)
        back = cache.read_cache(path)
        return back, search.smallest_prime_tau(limit, table=back)

    def check(out):
        back, found = out
        if found != expected:
            raise Mismatch(f"smallest prime tau {found}, want {expected}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != CACHE_DIGESTS[limit]:
            raise Mismatch(f"cache digest {digest[:16]}..., want {CACHE_DIGESTS[limit][:16]}...")
        second = hecke.tau_of_n(hecke.factorize(q * q), {q: oracle[q]})
        if back[q * q] != second:
            raise Mismatch(f"tau({q * q}) = {back[q * q]} from the table, {second} multiplicatively")

    return [Op("lehmer", run, check)]


# -- grid -----------------------------------------------------------------

GRID_REQUESTS = 16


def grid_setup(seed: int, work, tiny: bool) -> list[Op]:
    del work
    rng = random.Random(seed)
    n = GRID_REQUESTS
    p_hi = 600 if tiny else 5000
    p_lo = 200 if tiny else 1000
    e_hi = 60 if tiny else 200
    kk = _pairing(n, "grid-k")
    us_p, us_k, us_e = _strata(rng, n), _strata(rng, n), _strata(rng, n)
    # p_max is log-uniform, so its jitter moves every request's prime count
    # by the same share.  Caps fall as p_max rises: the primality cost of a
    # row grows with both, and a large-p, large-cap request alone would
    # outlast a run.
    requests = [
        (round(p_lo * (p_hi / p_lo) ** us_p[i]), _lerp(6, 24, us_k[kk[i]]), _lerp(40, e_hi, us_e[n - 1 - i]))
        for i in range(n)
    ]
    # One long row: every tau(2^{2k}) up to k = 1500 is below the cap, and
    # the largest run past the 4300-digit int/str limit of Python >= 3.11.
    requests.append((2, 60 if tiny else 1500, 500 if tiny else 5000))
    rng.shuffle(requests)
    # The table covers the whole p_max range, so set-up work does not move
    # with the seed.
    table = series.delta_series(p_hi)
    return [_grid_op(table, p_max, k_max, e) for p_max, k_max, e in requests]


def _sieve(n: int) -> list[int]:
    """The primes <= n, by a sieve of the check's own."""
    flags = [True] * (n + 1)
    flags[:2] = [False] * min(2, n + 1)
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, n + 1, i))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = frozenset(_sieve(1000))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def _verdict(value: int) -> str:
    """The search verdict of a value, by trial gcd and Fermat tests to bases 3 and 5."""
    n = abs(value)
    if n == 0:
        return Verdict.ZERO.value
    if n == 2:
        return Verdict.PLUS_MINUS_TWO.value
    if n < 1000:
        prime = n in _SMALL_PRIMES
    else:
        prime = gcd(n, _SMALL_PRODUCT) == 1 and pow(3, n - 1, n) == 1 and pow(5, n - 1, n) == 1
    return (Verdict.PROBABLE_PRIME if prime else Verdict.COMPOSITE).value


def _point(digest, p: int, k: int, value: int, residue: int, verdict: str) -> None:
    digest.update(f"{p},{k},{residue},{verdict},".encode())
    digest.update(value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True))


def _grid_expected(table, p_max: int, k_max: int, cap: int) -> tuple[bytes, int, list[int]]:
    """(digest, count, probable primes per residue mod 23) of the exact grid.

    Every row runs to k_max with no cut, so the digest covers every point
    with |tau(p^{2k})| <= cap: a missing, extra or wrong point changes it.
    Only the digest and the tallies are kept.
    """
    digest = hashlib.sha256()
    count = 0
    residues = [0] * 23
    for p in _sieve(p_max):
        t, x = table[p], p**11
        lo, hi = 1, t  # tau(p^{2k-2}), tau(p^{2k-1})
        for k in range(1, k_max + 1):
            even = t * hi - x * lo
            lo, hi = even, t * even - x * hi
            if abs(even) <= cap:
                verdict = _verdict(even)
                _point(digest, p, k, even, even % 23, verdict)
                count += 1
                if verdict == Verdict.PROBABLE_PRIME.value:
                    residues[even % 23] += 1
    return digest.digest(), count, residues


def _grid_op(table, p_max: int, k_max: int, e: int) -> Op:
    cap = 10**e
    expected = _once(lambda: _grid_expected(table, p_max, k_max, cap))

    def run():
        hits = search.search_prime_tau(p_max, k_max, cap, table=table)
        doc = reports.envelope(
            "search",
            {"pmax": p_max, "kmax": k_max, "vmax": f"10^{e}"},
            {"count": len(hits), "hits": [reports.hit_to_dict(h) for h in hits]},
        )
        return hits, reports.to_json(doc), search.census_by_residue(hits, cap)

    def check(out):
        hits, text, census = out
        want, count, residues = expected()
        got = hashlib.sha256()
        for h in hits:
            _point(got, h.p, h.k, h.value, h.residue23, h.verdict.value)
        if got.digest() != want:
            raise Mismatch(f"{len(hits)} search points differ from the {count} of the exact grid")
        # Hit objects are digested as the decoder meets them, so the check
        # never holds the parsed hit list.
        from_json = hashlib.sha256()

        def hit(d):
            if "verdict" not in d:
                return d
            if d["exponent"] != 2 * d["k"]:
                raise Mismatch(f"JSON exponent {d['exponent']} for k = {d['k']}")
            _point(from_json, d["p"], d["k"], _parse_decimal(d["value"]), d["residue23"], d["verdict"])
            return None

        payload = json.loads(text, object_hook=hit)["payload"]
        if payload["count"] != count or len(payload["hits"]) != count or from_json.digest() != want:
            raise Mismatch("JSON hits differ from the exact grid")
        if census.total != sum(residues) or [census.counts[r] for r in range(23)] != residues:
            raise Mismatch("census tally differs from the exact grid's probable primes")

    return Op(f"search:{p_max}x{k_max}x10^{e}", run, check)


# -- queries --------------------------------------------------------------

QUERIES_PER_KIND = 40
FACTOR_BUDGET = 10**12


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def queries_setup(seed: int, work, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    n = 6 if tiny else QUERIES_PER_KIND
    cache_limit = 600 if tiny else 4000
    p_top = 400 if tiny else 3000
    k_top = 100 if tiny else 1000
    table = series.delta_series(cache_limit)
    path = work / "queries-taucache.txt"
    cache.write_cache(table, path)
    primes = primality.primes_up_to(p_top)
    pick = lambda u: primes[min(len(primes) - 1, int(u * len(primes)))]  # noqa: E731

    def local(p):
        return PrimeLocalData(p, table[p])

    def multiplicative(m):
        f = hecke.factorize(m)
        return hecke.tau_of_n(f, {p: table[p] for p, _ in f.factors})

    ops = []
    for u in _strata(rng, n):
        m = 1 + int(u * cache_limit)
        ops.append(_cli_op(["tau", str(m), "--cache", str(path)], lambda m=m: multiplicative(m)))
    for u in _strata(rng, n):
        # The largest prime factor sets the cold series length; smaller
        # factors fill the number up to a seeded size within the budget.
        m = top = pick(u)
        for _ in range(rng.randrange(5)):
            q = primes[rng.randrange(primes.index(top) + 1)]
            if m * q > FACTOR_BUDGET:
                break
            m *= q
        ops.append(_cli_op(["tau", str(m)], lambda m=m: table[m] if m <= table.limit else multiplicative(m)))
    kk = _pairing(n, "queries-k")
    us_k = _strata(rng, n)
    for i, u in enumerate(_strata(rng, n)):
        p, k = pick(u), max(1, round(k_top ** us_k[kk[i]]))
        ops.append(_cli_op(["prime-power", str(p), str(k)], lambda p=p, k=k: _tau_prime_power(local(p), k)))
    rng.shuffle(ops)
    return ops


def _cli_op(argv: list[str], expected) -> Op:
    want = _once(expected)

    def check(out):
        if _parse_decimal(out) != want():
            raise Mismatch(f"tauprimes {' '.join(argv)} printed a different value")

    label = f"{argv[0]} --cache" if "--cache" in argv else argv[0]
    return Op(label, lambda: _run_cli(argv), check)


# -- analysis -------------------------------------------------------------

ANALYSIS_PER_KIND = 16
GUARD_DIGITS = 10


def _digits(k: int) -> int:
    """The documented default working precision of root sets: max(50, 4k) digits."""
    return max(50, 4 * k)


def analysis_setup(seed: int, work, tiny: bool) -> list[Op]:
    del work
    rng = random.Random(seed)
    n = 4 if tiny else ANALYSIS_PER_KIND
    p_top = 200 if tiny else 2000
    k_top = 12 if tiny else 300
    e_top = 40 if tiny else 1000
    n_top = 24 if tiny else 240
    table = series.delta_series(p_top)
    primes = primality.primes_up_to(p_top)

    def local(u):
        p = primes[min(len(primes) - 1, int(u * len(primes)))]
        return PrimeLocalData(p, table[p])

    ops = []
    for u in _strata(rng, n):
        ops.append(_poly_op(max(1, _lerp(1, k_top, u)), local(rng.random())))
    for u in _strata(rng, n):
        ops.append(_gap_op(_lerp(2, k_top, u)))
    kk = _pairing(n, "analysis-k")
    us_k = _strata(rng, n)
    for i, u in enumerate(_strata(rng, n)):
        ops.append(_approx_op(local(u), _lerp(1, k_top, us_k[kk[i]])))
    for u in _strata(rng, n):
        ops.append(_cyclo_op(local(rng.random()), _lerp(2, n_top, u)))
    for u in _strata(rng, n):
        ops.append(_bounds_op(_lerp(8, e_top, u)))
    rng.shuffle(ops)
    # Fill mpmath's constant caches at the highest precision the batch uses.
    with mpmath.workdps(_digits(k_top) + GUARD_DIGITS):
        mpmath.cos(mpmath.pi / 7)
        mpmath.expjpi(mpmath.mpf(2) / 7)
        mpmath.log(2)
    return ops


def _alpha(j: int, k: int):
    return 4 * mpmath.cos(mpmath.pi * j / (2 * k + 1)) ** 2


def _poly_op(k: int, loc: PrimeLocalData) -> Op:
    want = _once(lambda: _tau_prime_power(loc, 2 * k))

    def run():
        return spectral.even_index_poly(k), spectral.root_set(k)

    def check(out):
        poly, roots = out
        if spectral.eval_even_poly(poly, loc.x_p, loc.y_p) != want():
            raise Mismatch(f"G_{k}(p^11, tau(p)^2) != tau(p^{2 * k}) at p = {loc.p}")
        if len(roots.alphas) != k or any(a <= b for a, b in zip(roots.alphas, roots.alphas[1:])):
            raise Mismatch(f"root set of G_{k} is not {k} strictly decreasing values")

    return Op("poly+roots", run, check)


def _gap_op(k: int) -> Op:
    digits = _digits(k)

    def check(gap):
        with mpmath.workdps(digits + GUARD_DIGITS):
            closed = _alpha(k - 1, k) - _alpha(k, k)
            if abs(gap - closed) > mpmath.mpf(10) ** (GUARD_DIGITS - digits):
                raise Mismatch(f"min_gap({k}) differs from alpha_(k-1) - alpha_k")

    return Op("min_gap", lambda: spectral.min_gap(k), check)


def _approx_op(loc: PrimeLocalData, k: int) -> Op:
    digits = _digits(k)

    def check(q):
        with mpmath.workdps(digits + GUARD_DIGITS):
            ratio = mpmath.mpf(loc.y_p) / loc.x_p
            # alpha_j = 4 cos^2(pi j / (2k+1)) decreases in j, so the nearest
            # root sits next to the continuous solution of alpha = ratio.
            j_cont = mpmath.acos(mpmath.sqrt(ratio) / 2) * (2 * k + 1) / mpmath.pi
            near = {min(k, max(1, int(mpmath.floor(j_cont)) + d)) for d in (0, 1)}
            j_star = min(near, key=lambda j: abs(_alpha(j, k) - ratio))
            distance = abs(_alpha(j_star, k) - ratio)
            if q.j_star != j_star or abs(q.distance - distance) > mpmath.mpf(10) ** (GUARD_DIGITS - digits):
                raise Mismatch(f"nearest root of G_{k} to tau({loc.p})^2/{loc.p}^11 differs")
            if q.triggered != (q.distance < q.threshold):
                raise Mismatch("triggered flag disagrees with distance and threshold")

    return Op("approx", lambda: spectral.approximation_quality(loc, k), check)


def _cyclo_op(loc: PrimeLocalData, n: int) -> Op:
    want = _once(lambda: abs(_tau_prime_power(loc, n - 1)))

    def check(factors):
        with mpmath.workdps(60):
            got = mpmath.fprod(mag for _, mag in factors)
            if abs(got - want()) > mpmath.mpf("1e-9") * want():
                raise Mismatch(f"cyclotomic product for p = {loc.p}, n = {n} is not |tau(p^{n - 1})|")

    return Op("cyclotomic", lambda: spectral.cyclotomic_factor_magnitudes(loc, n), check)


def _bounds_op(e: int) -> Op:
    def check(report):
        if report.density != Fraction(9, 11):
            raise Mismatch(f"density {report.density}, want 9/11")
        lo, hi = report.bracket
        if not 0 < lo < hi:
            raise Mismatch("pi bracket is not ordered")
        if list(report.per_k_bound) != list(range(3, int(mpmath.ceil(report.k_hi)))):
            raise Mismatch("per-k bounds do not cover the admissible window")

    return Op("bounds", lambda: bounds.bound_report(10**e), check)


WORKLOADS = {
    "lehmer": lehmer_setup,
    "grid": grid_setup,
    "queries": queries_setup,
    "analysis": analysis_setup,
}
