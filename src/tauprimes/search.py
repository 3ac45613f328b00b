"""Grid search for prime values among tau(p^{2k}).

Only even prime-power indices can give odd values (odd perfect squares),
so the grid runs over primes p and k = 1..k_max and keeps every point
with |tau(p^{2k})| <= cap, compared exactly.  Every probable-prime
hit is checked against the residue classes allowed mod 23; a violation
would falsify the congruence analysis and aborts loudly.

tau(p^{2k}) is the Lucas term u_n, n = 2k + 1, of P = tau(p), Q = p^11,
and an odd value is screened in this order:

 1. below 2^64, is_probable_prime decides it outright;
 2. one gcd with the product of the primes below 1024 (has_small_factor);
 3. the index sieve (index_divisor).  For composite n, u_d divides u_n,
    with d the least prime factor of n, and the row holds u_d already.
    For prime n, every odd prime factor of u_n is n or is +-1 (mod n)
    when p does not divide tau(p) (Carmichael 1913), so one gcd with the
    product of the first 800 primes q > 1023, q = +-1 (mod n), tries them;
 4. Baillie-PSW (passes_strong_tests).

Every kill in steps 2 and 3 is a proper divisor of the value, so no
verdict rests on the law; the law only picks which q to try.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import islice
from math import gcd, isqrt, prod
from typing import Sequence

from .congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
)
from .hecke import PrimeLocalData, hecke_terms
from .primality import has_small_factor, is_probable_prime, passes_strong_tests, primes_up_to
from .series import TauTable

# Primes q = +-1 (mod n) in the index sieve's product for prime n.
_SIEVE_DEPTH = 800

_SAMPLE_NOTE = (
    "lower-bound sample over the searched (p, k) grid; "
    "not an exhaustive census of prime tau values below the cap"
)


class Verdict(Enum):
    PROBABLE_PRIME = "ProbablePrime"
    COMPOSITE = "Composite"
    PLUS_MINUS_TWO = "PlusMinusTwo"
    ZERO = "Zero"


@dataclass(frozen=True)
class SearchHit:
    """One grid point: value = tau(p^{2k}) with its mod-23 data and verdict."""

    p: int
    k: int
    value: int
    residue23: int
    class23: Class23
    verdict: Verdict


@dataclass
class CensusReport:
    """Residue tally of probable-prime hits with |value| <= n_cap."""

    n_cap: int
    counts: dict[int, int]
    excluded_class_hits: tuple[SearchHit, ...]
    footnote_anomalies: tuple[SearchHit, ...]
    note: str = field(default=_SAMPLE_NOTE)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@cache
def _sieve_product(n: int) -> int:
    """The product of the first _SIEVE_DEPTH primes q > 1023 with q = +-1 (mod n)."""
    primes = []
    j = 1
    while len(primes) < _SIEVE_DEPTH:
        primes += [q for q in (2 * j * n - 1, 2 * j * n + 1) if q > 1023 and is_probable_prime(q)]
        j += 1
    return prod(primes[:_SIEVE_DEPTH])


def index_divisor(row: Sequence[int]) -> int:
    """A proper divisor of |row[-1]| found by the index sieve, or 1.

    row is [tau(p^0), tau(p^2), ..., tau(p^{2k})] of one prime p, that is
    the Lucas terms u_1, u_3, ..., u_n, n = 2k + 1, of P = tau(p), Q = p^11.
    """
    k = len(row) - 1
    n = 2 * k + 1
    value = abs(row[k])
    d = next((d for d in range(3, isqrt(n) + 1, 2) if n % d == 0), n)
    if d < n:
        divisor = abs(row[(d - 1) // 2])
        return divisor if 1 < divisor < value and value % divisor == 0 else 1
    divisor = gcd(value, _sieve_product(n))
    return divisor if divisor < value else 1


def _verdict_for(row: list[int]) -> Verdict:
    value = abs(row[-1])
    if value == 0:
        return Verdict.ZERO
    if value == 2:
        return Verdict.PLUS_MINUS_TWO
    if value % 2 == 0:
        return Verdict.COMPOSITE
    if value < 2**64:
        prime = is_probable_prime(value)
    else:
        prime = not has_small_factor(value) and index_divisor(row) == 1 and passes_strong_tests(value)
    return Verdict.PROBABLE_PRIME if prime else Verdict.COMPOSITE


def search_prime_tau(
    p_max: int,
    k_max: int,
    value_cap: int,
    *,
    table: TauTable,
) -> list[SearchHit]:
    """All grid hits with |tau(p^{2k})| <= value_cap, ordered by (p, k)."""
    if p_max < 1 or k_max < 1:
        raise ValueError("p_max and k_max must be >= 1")
    if value_cap < 0:
        raise ValueError("value_cap must be >= 0")
    if table.limit < p_max:
        raise ValueError(f"table covers 1..{table.limit}, need 1..{p_max}")

    hits: list[SearchHit] = []
    for p in primes_up_to(p_max):
        local = PrimeLocalData(p, table[p])
        cls = classify_mod23(p)
        even_terms = islice(hecke_terms(local.tau_p, local.x_p), 2, 2 * k_max + 1, 2)
        row = [1]
        for k, cur in enumerate(even_terms, start=1):
            row.append(cur)
            if abs(cur) > value_cap:
                continue
            verdict = _verdict_for(row)
            residue = cur % 23
            if (
                verdict is Verdict.PROBABLE_PRIME
                and cls.tag is not Class23Tag.IS_TWENTY_THREE
                and residue not in allowed_residues_for_prime_value(k)
            ):
                raise RuntimeError(
                    "mod-23 admissibility violated: "
                    f"p={p} k={k} tau(p^{2 * k})={cur} residue={residue} "
                    f"class={cls.tag.value} allowed={sorted(allowed_residues_for_prime_value(k))}"
                )
            hits.append(SearchHit(p, k, cur, residue, cls, verdict))
    return hits


def smallest_prime_tau(limit: int, *, table: TauTable) -> tuple[int, int] | None:
    """First n <= limit with tau(n) prime, as (n, tau(n)), or None.

    Parity cuts the work: tau(n) is odd only for odd square n, so those get
    the full compositeness test and every other n can only contribute the
    even primes +-2.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if table.limit < limit:
        raise ValueError(f"table covers 1..{table.limit}, need 1..{limit}")
    for n in range(1, limit + 1):
        t = table[n]
        if n % 2 == 1 and isqrt(n) ** 2 == n:
            if is_probable_prime(t):
                return n, t
        elif t == 2 or t == -2:
            return n, t
    return None


def census_by_residue(hits: list[SearchHit], n_cap: int) -> CensusReport:
    """Tally probable-prime hits with |value| <= n_cap by residue mod 23."""
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    counts = {r: 0 for r in range(23)}
    excluded = excluded_b_set()
    excluded_hits = []
    anomalies = []
    for hit in hits:
        if hit.verdict is not Verdict.PROBABLE_PRIME or abs(hit.value) > n_cap:
            continue
        counts[hit.residue23] += 1
        if hit.residue23 in excluded:
            excluded_hits.append(hit)
        if hit.value % 2 == 1 and not is_probable_prime(2 * hit.k + 1):
            # An odd prime tau(p^{2k}) forces 2k+1 prime; a counterexample
            # is reported, not raised.
            anomalies.append(hit)
    return CensusReport(n_cap, counts, tuple(excluded_hits), tuple(anomalies))
