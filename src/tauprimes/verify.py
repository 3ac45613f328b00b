"""Self-contained verification suites behind `tauprimes verify`.

Each check recomputes a published or derivable fact through two routes
that share as little code as possible (packed series vs naive expansion,
recurrence vs closed form, formula vs sieve) and reports pass/fail.  Its
detail counts what was compared, so a check that compared nothing shows.

Each suite is a generator of (name, passed, detail), one per check in
report order; SUITES maps suite names to them, and Verifier.run turns
what they yield into CheckResults.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from . import bounds as bnd
from .cache import table_for
from .congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
    parity_law,
    tau_mod23,
)
from .hecke import PrimeLocalData, factorize, tau_of_n, tau_prime_power
from .primality import has_small_factor, is_probable_prime, primes_up_to
from .search import Verdict, census_by_residue, index_divisor, search_prime_tau, smallest_prime_tau
from .series import DEFAULT_LIMIT_CEILING, TauTable, delta_series, tau_values
from .spectral import (
    approximation_quality,
    closed_form_residual,
    cyclotomic_factor_magnitudes,
    eval_dehomogenized,
    eval_even_poly,
    even_index_poly,
    growth_check,
    min_gap,
    root_set,
)

EXPANSION_HEAD = (1, -24, 252, -1472, 4830)
LEHMER_N = 63001
LEHMER_VALUE = -80561663527802406257321747
NIEBUR_PRIMES = (199999, 199967, 131071, 65537, 2999)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def brute_force_delta(limit: int) -> list[int]:
    """tau(1..limit) by 24 naive multiplications per Euler factor (1 - q^n).

    Deliberately ignorant of the Jacobi cube identity and of the packed
    squarings; this is the independent oracle.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    degree = limit - 1
    poly = [0] * (degree + 1)
    poly[0] = 1
    for n in range(1, degree + 1):
        for _ in range(24):
            for i in range(degree, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


class Verifier:
    """Runs suites, sharing one lazily grown tau table across checks."""

    def __init__(self, cache_path: str | Path | None = None):
        self.cache_path = Path(cache_path) if cache_path else None
        if self.cache_path:
            # Raises FileNotFoundError for a missing cache before any check runs,
            # also for suites that never read the table.
            self.cache_path.stat()
        self._table: TauTable | None = None

    def table(self, limit: int) -> TauTable:
        """tau(1..limit) from one kept table, grown from a named cache (never $TAUPRIMES_CACHE_DIR)."""
        if self._table is None or self._table.limit < limit:
            self._table = table_for(limit, self.cache_path) if self.cache_path else delta_series(limit)
        return self._table.truncated(limit) if self._table.limit > limit else self._table

    def run(self, suite: str) -> list[CheckResult]:
        if suite != "all" and suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {(*SUITES, 'all')}")
        names = SUITES if suite == "all" else (suite,)
        return [CheckResult(name, *check) for name in names for check in SUITES[name](self)]


def _series_checks(verifier: Verifier) -> Iterator[tuple[str, bool, str]]:
    # The ceiling table first: every later table is a slice of it.
    ceiling = verifier.table(DEFAULT_LIMIT_CEILING)
    head = tuple(delta_series(5).coeffs)
    yield "expansion head tau(1..5)", head == EXPANSION_HEAD, f"got {head}"

    # A fresh 500-term series, and the table in use (which may be a cache).
    oracle = brute_force_delta(500)
    agree = [
        sum(oracle[n - 1] == t[n] for n in range(1, 501)) for t in (delta_series(500), verifier.table(500))
    ]
    yield (
        "naive Euler-product oracle, n <= 500",
        agree == [500, 500],
        f"naive expansion agrees on {agree[0]}/500 terms of delta_series(500) "
        f"and {agree[1]}/500 of the table in use",
    )

    table = verifier.table(100_000)
    laws = [parity_law(n, t) for n, t in table.items()]
    bad = laws.count(False)
    yield "parity law, n <= 10^5", bad == 0, f"{bad} violations over {len(laws)} values"

    ok, detail = _hecke_consistency(table.truncated(10_000))
    yield "Hecke recurrence + multiplicativity, n <= 10^4", ok, detail

    got = table[LEHMER_N]
    t251 = tau_values([251])
    route2 = tau_of_n(factorize(LEHMER_N), t251)
    route3 = tau_prime_power(PrimeLocalData(251, t251[251]), 2)
    yield (
        "Lehmer value tau(63001)",
        got == LEHMER_VALUE == route2 == route3,
        f"series {got}, multiplicative route {route2}, prime-power route {route3}",
    )

    below = smallest_prime_tau(LEHMER_N - 1, table=table)
    at = smallest_prime_tau(LEHMER_N, table=table)
    ok = below is None and at == (LEHMER_N, LEHMER_VALUE)
    yield "first prime tau value appears at n = 63001", ok, f"below: {below}, at: {at}"

    agree = sum(v == ceiling[p] for p, v in tau_values(NIEBUR_PRIMES).items())
    yield (
        "Niebur's formula meets the table at the 2*10^5 ceiling",
        agree == len(NIEBUR_PRIMES),
        f"tau(p) agrees at {agree}/{len(NIEBUR_PRIMES)} of p = {', '.join(map(str, NIEBUR_PRIMES))}",
    )


def _congruence_checks(verifier: Verifier) -> Iterator[tuple[str, bool, str]]:
    table = verifier.table(10_000)
    bad = []
    checked = 0
    for p in primes_up_to(10_000):
        cls = classify_mod23(p)
        if cls.tag is Class23Tag.IS_TWENTY_THREE:
            continue
        checked += 1
        if cls.witness is not None:
            a, b = cls.witness
            if a * a + 23 * b * b != p:
                bad.append((p, "witness"))
        if table[p] % 23 != tau_mod23(cls, 1):
            bad.append((p, cls.tag.value))
    yield (
        "class determines tau(p) mod 23, p < 10^4",
        not bad,
        (f"{len(bad)} violations {bad[:3]}" if bad else "all classes match")
        + f" over {checked} primes",
    )

    bad = pairs = 0
    for p in primes_up_to(299):
        if p == 23:
            continue
        cls = classify_mod23(p)
        for k, exact in enumerate(_two_term_powers(p, table[p], 100)):
            pairs += 1
            bad += exact % 23 != tau_mod23(cls, k)
    yield (
        "recurrence mod 23 vs exact big-int, p < 300, k <= 100",
        bad == 0,
        f"{bad} mismatches over {pairs} pairs",
    )

    nr = Class23(Class23Tag.NON_RESIDUE)
    sp = Class23(Class23Tag.SPLIT_NON_PRINCIPAL)
    pr = Class23(Class23Tag.PRINCIPAL_FORM, (6, 1))
    patterns = [
        (tau_mod23(nr, k), tau_mod23(sp, k), tau_mod23(pr, k))
        == (1 - k % 2, (1, 22, 0)[k % 3], (k + 1) % 23)
        for k in range(1001)
    ]
    yield (
        "periodic residue patterns, k <= 1000",
        all(patterns),
        "non-residue alternates 1,0; split class cycles 1,22,0; principal gives k+1; "
        f"{patterns.count(False)} mismatches over {len(patterns)} exponents",
    )

    allowed1 = set(allowed_residues_for_prime_value(1))
    allowed11 = set(allowed_residues_for_prime_value(11))
    excl = excluded_b_set()
    k_min_ok = all(
        min(k for k in range(1, 24) if (2 * k + 1) % 23 == b) >= 3 for b in excl
    )
    ok = (
        allowed1 == {0, 1, 3, 22}
        and allowed11 == {0, 1, 22}
        and len(excl) == 18
        and excl.isdisjoint({0, 1, 3, 5, 22})
        and k_min_ok
    )
    yield (
        "allowed residue sets and the 18 excluded classes",
        ok,
        f"allowed(k=1)={sorted(allowed1)}, |excluded|={len(excl)}",
    )


def _spectral_checks(verifier: Verifier) -> Iterator[tuple[str, bool, str]]:
    ctx = mpmath.MPContext()
    table = verifier.table(50)
    bad = compared = 0
    for p in primes_up_to(20):
        local = PrimeLocalData(p, table[p])
        values = _two_term_powers(p, local.tau_p, 16)
        for k in range(9):
            compared += 1
            bad += eval_even_poly(even_index_poly(k), local.x_p, local.y_p) != values[2 * k]
    yield (
        "G_k(p^11, tau(p)^2) = tau(p^{2k}), p <= 20, k <= 8",
        bad == 0,
        f"{bad} mismatches over {compared} values",
    )

    worst = 0.0
    roots = 0
    for k in range(1, 51):
        poly = even_index_poly(k)
        norm1 = sum(abs(c) for c in poly.coeffs)
        rs = root_set(k)
        digits = rs.precision_digits
        # Guard digits so Horner rounding stays subordinate to the
        # digits-digit accuracy of the roots themselves.
        ctx.dps = 2 * digits + 20
        tol = ctx.mpf(10) ** (-(digits - 10)) * norm1
        for alpha in rs.alphas:
            roots += 1
            worst = max(worst, float(abs(eval_dehomogenized(poly, ctx.mpf(alpha))) / tol))
    yield (
        "trig roots annihilate G_k(1, y), k <= 50",
        worst < 1.0,
        f"worst residual at {worst:.3g} of tolerance over {roots} roots",
    )

    gaps = [(k, digits) for k in range(3, 201) for digits in (None, 50)]
    low = [(k, d) for k, d in gaps if not min_gap(k, d) > (math.pi / (2 * k + 1)) ** 2]
    yield (
        "root separation beats (pi/(2k+1))^2, 3 <= k <= 200",
        not low,
        (f"fails at (k, digits) {low[:3]}" if low else "adjacent-gap lower bound holds")
        + f" over {len(gaps)} gaps",
    )

    # The factors' exact product, and each factor |Phi_d| against its
    # trigonometric form, the product of 2 p^{11/2} |sin(t - pi m/d)| over
    # m <= d prime to d, where cos t = tau(p) / (2 p^{11/2}).
    ctx.dps = 80
    worst_rel = ctx.mpf(0)
    bad = compared = 0
    for p in primes_up_to(13):
        local = PrimeLocalData(p, table[p])
        values = _two_term_powers(p, local.tau_p, 19)
        r = ctx.sqrt(local.x_p)
        t = ctx.acos(local.tau_p / (2 * r))
        for n in range(2, 21):
            factors = cyclotomic_factor_magnitudes(local, n)
            compared += 1
            bad += math.prod(f for _, f in factors) != abs(values[n - 1])
            for d, f in factors:
                trig = ctx.mpf(1)
                for m in range(1, d + 1):
                    if math.gcd(m, d) == 1:
                        trig *= 2 * r * abs(ctx.sin(t - ctx.pi * m / d))
                worst_rel = max(worst_rel, abs(trig - f) / f)
    yield (
        "cyclotomic magnitudes rebuild |tau(p^{n-1})|, p <= 13, n <= 20",
        bad == 0 and worst_rel < 1e-50,
        f"{bad} products differ from |tau(p^(n-1))|, worst factor gap to the trigonometric form "
        f"{mpmath.nstr(worst_rel, 3)} over {compared} values",
    )

    growth = []
    residuals = []
    for p in primes_up_to(50):
        local = PrimeLocalData(p, table[p])
        growth.extend(flag for _, flag in growth_check(local, 60))
        residuals.extend(closed_form_residual(local, k) for k in range(1, 31))
    resid_worst = max(residuals, default=math.inf)
    yield (
        "|tau(p^k)| > 2^k and closed form matches, p <= 50",
        all(growth) and resid_worst < 1e-20,
        f"{growth.count(False)} growth violations over {len(growth)} comparisons, "
        f"worst closed-form residual {resid_worst:.3g} over {len(residuals)} values",
    )

    triggered = []
    pairs = 0
    for p in primes_up_to(50):
        local = PrimeLocalData(p, table[p])
        for k in range(1, 31):
            pairs += 1
            if approximation_quality(local, k).triggered:
                triggered.append((p, k))
    yield (
        "no tau ratio approaches a root within 1/(64 h^{5/2})",
        not triggered,
        (f"triggered at {triggered}" if triggered else "threshold never crossed")
        + f" over {pairs} pairs",
    )


def _search_checks(verifier: Verifier) -> Iterator[tuple[str, bool, str]]:
    table = verifier.table(2000)
    hits = search_prime_tau(2000, 6, 10**40, table=table)
    primes = [h for h in hits if h.verdict is Verdict.PROBABLE_PRIME]
    lehmer = [h for h in hits if h.p == 251 and h.k == 1]
    ok = (
        len(lehmer) == 1
        and lehmer[0].value == LEHMER_VALUE
        and lehmer[0].verdict is Verdict.PROBABLE_PRIME
        and lehmer[0].residue23 == 1
    )
    yield (
        "grid p <= 2000, k <= 6, cap 10^40 finds the Lehmer hit",
        ok,
        f"{len(hits)} hits, {len(primes)} probable primes at (p, k) = {[(h.p, h.k) for h in primes]}",
    )

    # Every prime hit, p = 23 included: odd, an allowed residue, and for
    # k <= 2 outside the excluded classes.
    excluded = excluded_b_set()
    inadmissible = [
        (h.p, h.k)
        for h in primes
        if h.value % 2 == 0
        or h.residue23 not in allowed_residues_for_prime_value(h.k)
        or (h.k <= 2 and h.residue23 in excluded)
    ]
    census = census_by_residue(hits, 10**40)
    ok = (
        bool(primes)
        and not inadmissible
        and census.counts[1] >= 1
        and all(h.k >= 3 for h in census.excluded_class_hits)
        and not census.footnote_anomalies
    )
    yield (
        "census residues admissible, excluded classes need k >= 3",
        ok,
        f"{len(inadmissible)} inadmissible of {len(primes)} probable primes, "
        f"counts {dict((r, c) for r, c in census.counts.items() if c)}",
    )

    # The index sieve: every small factor at prime n = 2k + 1 obeys the
    # law the sieve picks its primes by, each divisor it reports divides,
    # and no verdict differs from is_probable_prime's.
    broken = factors = mismatched = odd = sieved = proven = 0
    small_primes = primes_up_to(1023)
    for h in hits:
        if h.value % 2 == 0:
            continue
        odd += 1
        mismatched += (h.verdict is Verdict.PROBABLE_PRIME) != is_probable_prime(h.value)
        n = 2 * h.k + 1
        if is_probable_prime(n) and table[h.p] % h.p:
            for q in small_primes:
                if h.value % q == 0:
                    factors += 1
                    broken += q != n and q % n not in (1, n - 1)
        if abs(h.value) >= 2**64 and not has_small_factor(h.value):
            sieved += 1
            divisor = index_divisor(_two_term_powers(h.p, table[h.p], 2 * h.k)[::2], h.k)
            proven += 1 < divisor < abs(h.value) and h.value % divisor == 0
    yield (
        "index sieve: small factors obey the law, verdicts match is_probable_prime",
        broken == mismatched == 0 and factors > 0 and proven > 0,
        f"{broken} of {factors} factors q < 1024 at prime 2k+1 break the law; "
        f"{mismatched} verdict mismatches over {odd} odd values; "
        f"the sieve proved {proven} of {sieved} values above 2^64 composite",
    )

    small = search_prime_tau(3, 1, 10**7, table=verifier.table(3))
    vals = {(h.p, h.k): (h.value, h.verdict) for h in small}
    ok = vals[(2, 1)] == (-1472, Verdict.COMPOSITE) and vals[(3, 1)] == (-113643, Verdict.COMPOSITE)
    yield (
        "tau(4) and tau(9) surface as composite hits",
        ok,
        ", ".join(f"tau({p}^{2 * k}) = {v} {verdict.value}" for (p, k), (v, verdict) in vals.items()),
    )


def _bounds_checks(verifier: Verifier) -> Iterator[tuple[str, bool, str]]:
    ctx = mpmath.MPContext()
    ctx.dps = 100

    def agree(value, alt):
        return abs(ctx.mpf(value) - alt) / alt < ctx.mpf(10) ** -29

    checks = []
    _, k_hi = bnd.admissible_k_range(64)
    checks.append(abs(ctx.mpf(k_hi) - 3) < ctx.mpf(10) ** -90)
    for n in (10**6, 10**9, 10**12):
        k_lo, k_hi = bnd.admissible_k_range(n)
        checks.append(k_lo == 3 and agree(k_hi, ctx.log(n, 2) / 2))
    for k in [*range(3, 41), 1000]:
        k_ = ctx.mpf(k)
        alt = ctx.fsum(
            [
                4 * (ctx.log(k_ + 1) + ctx.log(ctx.log(4))),
                96000 * ctx.log(k_) ** 2 * (ctx.log(200) + ctx.log(ctx.log(k_))),
            ]
        )
        checks.append(agree(bnd.bvdp_count_bound(k), alt))
    for n in (10**6, 10**9, 10**12):
        ln_n = ctx.log(n)
        alt = ctx.exp(ctx.mpf(9) / 10 * ln_n) * ln_n / ctx.log(4)
        checks.append(agree(bnd.attainable_prime_ceiling(n), alt))
    for m in range(1, 13):
        alt = 7 * ctx.mpf(10) ** m / (11 * ctx.log(10) * (m + 1))
        checks.append(agree(bnd.progression_decade_floor(m), alt))
    lower, upper = bnd.pi_bracket(10**6)
    center = ctx.mpf(10**6) / (11 * ctx.log(10**6))
    checks.append(agree(lower, ctx.mpf("0.9") * center))
    checks.append(agree(upper, ctx.mpf("1.1") * center))
    yield (
        "formulas agree with independent re-evaluation to 30 digits",
        all(checks),
        f"{sum(checks)}/{len(checks)} comparisons",
    )

    ctx.dps = 50
    ratio_ok = all(
        abs(
            ctx.mpf(bnd.progression_decade_floor(m + 1)) / bnd.progression_decade_floor(m)
            - ctx.mpf(10 * (m + 1)) / (m + 2)
        )
        < ctx.mpf(10) ** -40
        for m in range(1, 30)
    )
    # Every decade_margin sign, proven by interval arithmetic: an interval
    # holding 0 decides nothing and fails the check.
    iv = MPIntervalContext()
    iv.dps = 50
    signs = [_margin_sign(iv, m) for m in range(1, bnd.CROSSOVER_M_MAX + 1)]
    proven = all(
        sign != 0 and (sign > 0) == (bnd.decade_margin(m) > 0) for m, sign in enumerate(signs, start=1)
    )
    neg_ok = all(sign < 0 for sign in signs[5:12])
    crossover = bnd.positivity_crossover()
    # The crossover is a sign change, not only the start of a positive run.
    sign_ok = (
        crossover is not None
        and crossover > 1
        and signs[crossover - 2] < 0
        and all(sign > 0 for sign in signs[crossover - 1 :])
    )
    yield (
        "decade growth law, early deficit, and positivity crossover",
        ratio_ok and proven and neg_ok and sign_ok,
        f"floor/ceiling margin turns positive at M = {crossover}",
    )

    # Primes p <= 10^6 by residue: the signed prime p is in class p mod 23, -p in -p mod 23.
    tally = [0] * 23
    for p in primes_up_to(10**6):
        tally[p % 23] += 1
    count = tally[2] + tally[21]
    yield (
        "sieve census of a signed class sits in the Dirichlet bracket at 10^6",
        bool(lower < count < upper),
        f"count {count} in ({mpmath.nstr(lower, 8)}, {mpmath.nstr(upper, 8)})",
    )

    density = bnd.density_fraction()
    excluded = sum(tally[b] + tally[-b % 23] for b in excluded_b_set())
    signed = 2 * (sum(tally) - tally[0])  # tally[0] is 23 alone
    share = Fraction(excluded, signed)
    gap = abs(share - density)
    yield (
        "excluded classes hold the density's share of signed primes to 10^6",
        gap < Fraction(1, 1000),
        f"{excluded} of {signed} signed primes l != +-23 = {float(share):.6f}, "
        f"density {density} = {float(density):.6f}, gap {float(gap):.2g}",
    )


SUITES = {
    "series": _series_checks,
    "congruence": _congruence_checks,
    "spectral": _spectral_checks,
    "search": _search_checks,
    "bounds": _bounds_checks,
}


def _hecke_consistency(table: TauTable) -> tuple[bool, str]:
    limit = table.limit
    bad = powers = 0
    for p in primes_up_to(limit):
        local = PrimeLocalData(p, table[p])
        m = 2
        while p**m <= limit:
            powers += 1
            if table[p**m] != local.tau_p * table[p ** (m - 1)] - local.x_p * table[p ** (m - 2)]:
                bad += 1
            m += 1
    pairs = 0
    for m in range(2, limit + 1):
        for n in range(m, limit // m + 1):
            if math.gcd(m, n) == 1:
                pairs += 1
                if table[m * n] != table[m] * table[n]:
                    bad += 1
    return bad == 0, f"{bad} violations over {powers} prime powers and {pairs} coprime pairs"


def _margin_sign(iv: MPIntervalContext, m: int) -> int:
    """The sign of bounds.decade_margin(m), +1 or -1, from an interval
    evaluation of its formula at N = 10^{m+1} on iv, with the window's k
    counted one by one; 0 when the interval holds 0."""
    n = 10 ** (m + 1)
    k_count = 0
    while 4 ** (3 + k_count) < n:
        k_count += 1
    log_n = iv.log(iv.mpf(n))
    floor = 7 * iv.mpf(10) ** m / (11 * iv.log(10) * (m + 1))
    ceiling = iv.exp(log_n * 9 / 10) * log_n / (2 * iv.log(2))
    margin = floor - ceiling * k_count
    return 1 if margin.a > 0 else -1 if margin.b < 0 else 0


def _two_term_powers(p: int, tau_p: int, max_exponent: int) -> list[int]:
    """[tau(p^0), ..., tau(p^max_exponent)] by its own two-term step, apart from hecke_terms."""
    values = [1, tau_p]
    while len(values) <= max_exponent:
        values.append(tau_p * values[-1] - p**11 * values[-2])
    return values[: max_exponent + 1]


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}: {r.name} ({r.detail})")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
