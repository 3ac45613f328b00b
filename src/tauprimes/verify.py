"""Self-contained verification suites behind `tauprimes verify`.

Each check recomputes a published or derivable fact through two routes
that share as little code as possible (packed series vs naive expansion,
recurrence vs closed form, formula vs sieve) and reports pass/fail.  Its
detail counts what was compared, so a check that compared nothing shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

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
from .hecke import PrimeLocalData, closed_form_residual, factorize, tau_of_n
from .primality import has_small_factor, is_probable_prime, primes_up_to
from .search import Verdict, census_by_residue, index_divisor, search_prime_tau, smallest_prime_tau
from .series import TauTable, delta_series, tau_values
from .spectral import (
    approximation_quality,
    cyclotomic_factor_magnitudes,
    eval_dehomogenized,
    eval_even_poly,
    even_index_poly,
    growth_check,
    min_gap,
    root_set,
)

SUITES = ("series", "congruence", "spectral", "search", "bounds")

EXPANSION_HEAD = (1, -24, 252, -1472, 4830)
LEHMER_N = 63001
LEHMER_VALUE = -80561663527802406257321747


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
        self._table: TauTable | None = None

    def table(self, limit: int) -> TauTable:
        # Only a named cache stands in for delta_series, never $TAUPRIMES_CACHE_DIR.
        if self._table is None or self._table.limit < limit:
            self._table = table_for(limit, self.cache_path) if self.cache_path else delta_series(limit)
        return self._table.truncated(limit) if self._table.limit > limit else self._table

    def run(self, suite: str) -> list[CheckResult]:
        if suite == "all":
            out = []
            for name in SUITES:
                out.extend(self.run(name))
            return out
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
        return getattr(self, f"_suite_{suite}")()

    # -- series ------------------------------------------------------------

    def _suite_series(self) -> list[CheckResult]:
        out = []
        head = tuple(delta_series(5).coeffs)
        out.append(
            CheckResult(
                "series",
                "expansion head tau(1..5)",
                head == EXPANSION_HEAD,
                f"got {head}",
            )
        )

        # A fresh 500-term series, and the table in use (which may be a cache).
        oracle = brute_force_delta(500)
        agree = [
            sum(oracle[n - 1] == t[n] for n in range(1, 501)) for t in (delta_series(500), self.table(500))
        ]
        out.append(
            CheckResult(
                "series",
                "naive Euler-product oracle, n <= 500",
                agree == [500, 500],
                f"naive expansion agrees on {agree[0]}/500 terms of delta_series(500) "
                f"and {agree[1]}/500 of the table in use",
            )
        )

        table = self.table(100_000)
        laws = [parity_law(n, t) for n, t in table.items()]
        bad = laws.count(False)
        out.append(
            CheckResult(
                "series",
                "parity law, n <= 10^5",
                bad == 0,
                f"{bad} violations over {len(laws)} values",
            )
        )

        ok, detail = _hecke_consistency(table.truncated(10_000))
        out.append(CheckResult("series", "Hecke recurrence + multiplicativity, n <= 10^4", ok, detail))

        got = table[LEHMER_N]
        route2 = tau_of_n(factorize(LEHMER_N), tau_values([251]))
        out.append(
            CheckResult(
                "series",
                "Lehmer value tau(63001)",
                got == LEHMER_VALUE and route2 == LEHMER_VALUE,
                f"series {got}, multiplicative route {route2}",
            )
        )

        below = smallest_prime_tau(LEHMER_N - 1, table=table)
        at = smallest_prime_tau(LEHMER_N, table=table)
        ok = below is None and at == (LEHMER_N, LEHMER_VALUE)
        out.append(
            CheckResult(
                "series",
                "first prime tau value appears at n = 63001",
                ok,
                f"below: {below}, at: {at}",
            )
        )
        return out

    # -- congruence ---------------------------------------------------------

    def _suite_congruence(self) -> list[CheckResult]:
        out = []
        table = self.table(10_000)
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
        out.append(
            CheckResult(
                "congruence",
                "class determines tau(p) mod 23, p < 10^4",
                not bad,
                (f"{len(bad)} violations {bad[:3]}" if bad else "all classes match")
                + f" over {checked} primes",
            )
        )

        bad = pairs = 0
        for p in primes_up_to(299):
            if p == 23:
                continue
            cls = classify_mod23(p)
            for k, exact in enumerate(_two_term_powers(p, table[p], 100)):
                pairs += 1
                bad += exact % 23 != tau_mod23(cls, k)
        out.append(
            CheckResult(
                "congruence",
                "recurrence mod 23 vs exact big-int, p < 300, k <= 100",
                bad == 0,
                f"{bad} mismatches over {pairs} pairs",
            )
        )

        nr = Class23(Class23Tag.NON_RESIDUE)
        sp = Class23(Class23Tag.SPLIT_NON_PRINCIPAL)
        pr = Class23(Class23Tag.PRINCIPAL_FORM, (6, 1))
        patterns = [
            (tau_mod23(nr, k), tau_mod23(sp, k), tau_mod23(pr, k))
            == (1 - k % 2, (1, 22, 0)[k % 3], (k + 1) % 23)
            for k in range(1001)
        ]
        out.append(
            CheckResult(
                "congruence",
                "periodic residue patterns, k <= 1000",
                all(patterns),
                "non-residue alternates 1,0; split class cycles 1,22,0; principal gives k+1; "
                f"{patterns.count(False)} mismatches over {len(patterns)} exponents",
            )
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
        out.append(
            CheckResult(
                "congruence",
                "allowed residue sets and the 18 excluded classes",
                ok,
                f"allowed(k=1)={sorted(allowed1)}, |excluded|={len(excl)}",
            )
        )
        return out

    # -- spectral ------------------------------------------------------------

    def _suite_spectral(self) -> list[CheckResult]:
        out = []
        table = self.table(50)
        bad = compared = 0
        for p in primes_up_to(20):
            local = PrimeLocalData(p, table[p])
            values = _two_term_powers(p, local.tau_p, 16)
            for k in range(9):
                compared += 1
                bad += eval_even_poly(even_index_poly(k), local.x_p, local.y_p) != values[2 * k]
        out.append(
            CheckResult(
                "spectral",
                "G_k(p^11, tau(p)^2) = tau(p^{2k}), p <= 20, k <= 8",
                bad == 0,
                f"{bad} mismatches over {compared} values",
            )
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
            with mpmath.workdps(2 * digits + 20):
                tol = mpmath.mpf(10) ** (-(digits - 10)) * norm1
                for alpha in rs.alphas:
                    roots += 1
                    worst = max(worst, float(abs(eval_dehomogenized(poly, alpha)) / tol))
        out.append(
            CheckResult(
                "spectral",
                "trig roots annihilate G_k(1, y), k <= 50",
                worst < 1.0,
                f"worst residual at {worst:.3g} of tolerance over {roots} roots",
            )
        )

        gaps = [(k, digits) for k in range(3, 201) for digits in (None, 50)]
        low = [(k, d) for k, d in gaps if not min_gap(k, d) > (mpmath.pi / (2 * k + 1)) ** 2]
        out.append(
            CheckResult(
                "spectral",
                "root separation beats (pi/(2k+1))^2, 3 <= k <= 200",
                not low,
                (f"fails at (k, digits) {low[:3]}" if low else "adjacent-gap lower bound holds")
                + f" over {len(gaps)} gaps",
            )
        )

        worst_rel = mpmath.mpf(0)
        compared = 0
        with mpmath.workdps(80):
            for p in primes_up_to(13):
                local = PrimeLocalData(p, table[p])
                values = _two_term_powers(p, local.tau_p, 19)
                for n in range(2, 21):
                    prod = mpmath.mpf(1)
                    for _, m in cyclotomic_factor_magnitudes(local, n):
                        prod *= m
                    exact = abs(values[n - 1])
                    compared += 1
                    worst_rel = max(worst_rel, abs(prod - exact) / exact if exact else mpmath.inf)
        out.append(
            CheckResult(
                "spectral",
                "cyclotomic magnitudes rebuild |tau(p^{n-1})|, p <= 13, n <= 20",
                worst_rel < 1e-9,
                f"worst relative error {mpmath.nstr(worst_rel, 3)} over {compared} values",
            )
        )

        growth = []
        residuals = []
        for p in primes_up_to(50):
            local = PrimeLocalData(p, table[p])
            growth.extend(flag for _, flag in growth_check(local, 60))
            residuals.extend(closed_form_residual(local, k) for k in range(1, 31))
        resid_worst = max(residuals, default=math.inf)
        out.append(
            CheckResult(
                "spectral",
                "|tau(p^k)| > 2^k and closed form matches, p <= 50",
                all(growth) and resid_worst < 1e-20,
                f"{growth.count(False)} growth violations over {len(growth)} comparisons, "
                f"worst closed-form residual {resid_worst:.3g} over {len(residuals)} values",
            )
        )

        triggered = []
        pairs = 0
        for p in primes_up_to(50):
            local = PrimeLocalData(p, table[p])
            for k in range(1, 31):
                pairs += 1
                if approximation_quality(local, k).triggered:
                    triggered.append((p, k))
        out.append(
            CheckResult(
                "spectral",
                "no tau ratio approaches a root within 1/(64 h^{5/2})",
                not triggered,
                (f"triggered at {triggered}" if triggered else "threshold never crossed")
                + f" over {pairs} pairs",
            )
        )
        return out

    # -- search ---------------------------------------------------------------

    def _suite_search(self) -> list[CheckResult]:
        out = []
        table = self.table(2000)
        hits = search_prime_tau(2000, 6, 10**40, table=table)
        primes = [h for h in hits if h.verdict is Verdict.PROBABLE_PRIME]
        lehmer = [h for h in hits if h.p == 251 and h.k == 1]
        ok = (
            len(lehmer) == 1
            and lehmer[0].value == LEHMER_VALUE
            and lehmer[0].verdict is Verdict.PROBABLE_PRIME
            and lehmer[0].residue23 == 1
        )
        out.append(
            CheckResult(
                "search",
                "grid p <= 2000, k <= 6, cap 10^40 finds the Lehmer hit",
                ok,
                f"{len(hits)} hits, {len(primes)} probable primes at (p, k) = {[(h.p, h.k) for h in primes]}",
            )
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
        out.append(
            CheckResult(
                "search",
                "census residues admissible, excluded classes need k >= 3",
                ok,
                f"{len(inadmissible)} inadmissible of {len(primes)} probable primes, "
                f"counts {dict((r, c) for r, c in census.counts.items() if c)}",
            )
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
                divisor = index_divisor(_two_term_powers(h.p, table[h.p], 2 * h.k)[::2])
                proven += 1 < divisor < abs(h.value) and h.value % divisor == 0
        out.append(
            CheckResult(
                "search",
                "index sieve: small factors obey the law, verdicts match is_probable_prime",
                broken == mismatched == 0 and factors > 0 and proven > 0,
                f"{broken} of {factors} factors q < 1024 at prime 2k+1 break the law; "
                f"{mismatched} verdict mismatches over {odd} odd values; "
                f"the sieve proved {proven} of {sieved} values above 2^64 composite",
            )
        )

        small = search_prime_tau(3, 1, 10**7, table=self.table(3))
        vals = {(h.p, h.k): (h.value, h.verdict) for h in small}
        ok = vals[(2, 1)] == (-1472, Verdict.COMPOSITE) and vals[(3, 1)] == (-113643, Verdict.COMPOSITE)
        out.append(
            CheckResult(
                "search",
                "tau(4) and tau(9) surface as composite hits",
                ok,
                ", ".join(f"tau({p}^{2 * k}) = {v} {verdict.value}" for (p, k), (v, verdict) in vals.items()),
            )
        )
        return out

    # -- bounds -----------------------------------------------------------------

    def _suite_bounds(self) -> list[CheckResult]:
        out = []
        checks = []
        with mpmath.workdps(100):

            def agree(value, alt):
                return abs(value - alt) / alt < mpmath.mpf(10) ** -29

            _, k_hi = bnd.admissible_k_range(64, 100)
            checks.append(abs(k_hi - 3) < mpmath.mpf(10) ** -90)
            for n in (10**6, 10**9, 10**12):
                k_lo, k_hi = bnd.admissible_k_range(n)
                checks.append(k_lo == 3 and agree(k_hi, mpmath.log(n, 2) / 2))
            for k in [*range(3, 41), 1000]:
                k_ = mpmath.mpf(k)
                alt = mpmath.fsum(
                    [
                        4 * (mpmath.log(k_ + 1) + mpmath.log(mpmath.log(4))),
                        96000 * mpmath.log(k_) ** 2 * (mpmath.log(200) + mpmath.log(mpmath.log(k_))),
                    ]
                )
                checks.append(agree(bnd.bvdp_count_bound(k, 50), alt))
            for n in (10**6, 10**9, 10**12):
                ln_n = mpmath.log(n)
                alt = mpmath.exp(mpmath.mpf(9) / 10 * ln_n) * ln_n / mpmath.log(4)
                checks.append(agree(bnd.attainable_prime_ceiling(n, 50), alt))
            for m in range(1, 13):
                alt = 7 * mpmath.mpf(10) ** m / (11 * mpmath.log(10) * (m + 1))
                checks.append(agree(bnd.progression_decade_floor(m, 50), alt))
            lower, upper = bnd.pi_bracket(10**6)
            center = mpmath.mpf(10**6) / (11 * mpmath.log(10**6))
            checks.append(agree(lower, mpmath.mpf("0.9") * center))
            checks.append(agree(upper, mpmath.mpf("1.1") * center))
        out.append(
            CheckResult(
                "bounds",
                "formulas agree with independent re-evaluation to 30 digits",
                all(checks),
                f"{sum(checks)}/{len(checks)} comparisons",
            )
        )

        with mpmath.workdps(50):
            ratio_ok = all(
                abs(
                    bnd.progression_decade_floor(m + 1) / bnd.progression_decade_floor(m)
                    - mpmath.mpf(10 * (m + 1)) / (m + 2)
                )
                < mpmath.mpf(10) ** -40
                for m in range(1, 30)
            )
        neg_ok = all(bnd.decade_margin(m) < 0 for m in range(6, 13))
        crossover = bnd.positivity_crossover(200)
        # The crossover is a sign change, not only the start of a positive run.
        sign_ok = (
            crossover is not None
            and bnd.decade_margin(crossover) > 0 >= bnd.decade_margin(crossover - 1)
        )
        out.append(
            CheckResult(
                "bounds",
                "decade growth law, early deficit, and positivity crossover",
                ratio_ok and neg_ok and sign_ok,
                f"floor/ceiling margin turns positive at M = {crossover}",
            )
        )

        count = _signed_class_count(10**6, 2)
        out.append(
            CheckResult(
                "bounds",
                "sieve census of a signed class sits in the Dirichlet bracket at 10^6",
                bool(lower < count < upper),
                f"count {count} in ({mpmath.nstr(lower, 8)}, {mpmath.nstr(upper, 8)})",
            )
        )

        ds = bnd.dirichlet_partial_sum([3, -3], 2)
        with mpmath.workdps(50):
            sum_ok = abs(ds.partial_sum - mpmath.mpf(2) / 9) < mpmath.mpf(10) ** -40
        ok = bnd.density_fraction() == Fraction(9, 11) and sum_ok
        out.append(
            CheckResult(
                "bounds",
                "density 18/22 and the two-term Dirichlet sum",
                ok,
                f"sum {mpmath.nstr(ds.partial_sum, 10)}, normalizer {mpmath.nstr(ds.normalizer, 10)}",
            )
        )
        return out


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


def _two_term_powers(p: int, tau_p: int, max_exponent: int) -> list[int]:
    """[tau(p^0), ..., tau(p^max_exponent)] by its own two-term step, apart from hecke_terms."""
    values = [1, tau_p]
    while len(values) <= max_exponent:
        values.append(tau_p * values[-1] - p**11 * values[-2])
    return values[: max_exponent + 1]


def _signed_class_count(x: int, b: int) -> int:
    """#{signed primes l, |l| <= x, l = b mod 23} by sieve; counts p = b and p = -b."""
    count = 0
    targets = {b % 23, (-b) % 23}
    for p in primes_up_to(x):
        if p % 23 in targets:
            count += 1
    return count


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}: {r.name} ({r.detail})")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
