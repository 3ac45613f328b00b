"""Grid search for prime values among tau(p^{2k}).

Only even prime-power indices can give odd values (odd perfect squares),
so the grid runs over primes p and k = 1..k_max, stopping a p-row a few
steps after |tau(p^{2k})| exactly exceeds the cap.  Every probable-prime
hit is checked against the residue classes allowed mod 23; a violation
would falsify the congruence analysis and aborts loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from math import isqrt

from .congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
)
from .hecke import PrimeLocalData, hecke_terms
from .primality import is_probable_prime, primes_up_to
from .series import TauTable, delta_series

# After the first exact cap crossing, examine this many further k before
# abandoning the row; |tau| is checked exactly, never assumed monotone.
_OVERSHOOT_GRACE = 3

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


def _verdict_for(value: int, extra_rounds: int) -> Verdict:
    if value == 0:
        return Verdict.ZERO
    if value in (2, -2):
        return Verdict.PLUS_MINUS_TWO
    if value % 2 == 0:
        return Verdict.COMPOSITE
    if is_probable_prime(value, extra_rounds=extra_rounds):
        return Verdict.PROBABLE_PRIME
    return Verdict.COMPOSITE


def search_prime_tau(
    p_max: int,
    k_max: int,
    value_cap: int,
    *,
    table: TauTable | None = None,
    extra_rounds: int = 0,
) -> list[SearchHit]:
    """All grid hits with |tau(p^{2k})| <= value_cap, ordered by (p, k)."""
    if p_max < 1 or k_max < 1:
        raise ValueError("p_max and k_max must be >= 1")
    if value_cap < 0:
        raise ValueError("value_cap must be >= 0")
    if table is None:
        table = delta_series(p_max)
    elif table.limit < p_max:
        raise ValueError(f"table covers 1..{table.limit}, need 1..{p_max}")

    hits: list[SearchHit] = []
    for p in primes_up_to(p_max):
        local = PrimeLocalData(p, table[p])
        cls = classify_mod23(p)
        even_terms = islice(hecke_terms(local.tau_p, local.x_p), 2, 2 * k_max + 1, 2)
        over = 0
        for k, cur in enumerate(even_terms, start=1):
            if abs(cur) > value_cap:
                over += 1
                if over > _OVERSHOOT_GRACE:
                    break
                continue
            over = 0
            verdict = _verdict_for(cur, extra_rounds)
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


def smallest_prime_tau(
    limit: int, *, table: TauTable | None = None, extra_rounds: int = 0
) -> tuple[int, int] | None:
    """First n <= limit with tau(n) prime, as (n, tau(n)), or None.

    Parity cuts the work: tau(n) is odd only for odd square n, so those get
    the full compositeness test and every other n can only contribute the
    even primes +-2.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if table is None:
        table = delta_series(limit)
    elif table.limit < limit:
        raise ValueError(f"table covers 1..{table.limit}, need 1..{limit}")
    for n in range(1, limit + 1):
        t = table[n]
        if n % 2 == 1 and isqrt(n) ** 2 == n:
            if is_probable_prime(t, extra_rounds=extra_rounds):
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
