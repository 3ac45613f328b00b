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

search_prime_tau runs in three phases:

 1. the parent runs each row's recurrence and collects every in-cap point
    as (p, k, row), the row a map {j: tau(p^{2j})} of p's in-cap terms.
    u_d divides u_n, so for a nonzero in-cap u_n the u_d that the index
    sieve reads is in the map too;
 2. the verdicts, one byte per point in an anonymous shared map made
    before any fork.  Only odd values of 2^64 and above pass screen 1, so
    only they can reach a modular power past 64 bits.  When at least two cores are
    usable (os.sched_getaffinity), only the main thread is alive and
    those values weigh enough (_FORK_MIN_WORK), the parent builds the
    sieve products they need, sorts them by bit length and deals them in
    turn to itself and to one forked child per extra core.  A child
    writes its share into the map and leaves by os._exit; the parent
    reaps every child, then reads the map.  A child that exits non-zero,
    or a point no process wrote, makes the search raise RuntimeError; if
    the parent's own share raises, or SIGINT interrupts it (children ignore
    SIGINT), it kills and reaps its children first;
    a share whose fork fails is done by the parent.  Otherwise, and on
    platforms without sched_getaffinity, the parent writes every point
    into the map itself;
 3. the parent builds the hits in (p, k) order and checks each
    probable-prime hit mod 23.

The values, verdicts and hits are the same on either route.  census --from
rebuilds a report's hits through phases 2-3, in the parent (rebuild_hits),
from rows that map only the claimed k and the (d - 1) / 2 the sieve reads.
"""

from __future__ import annotations

import mmap
import os
import signal
import threading
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import islice
from math import gcd, isqrt, prod
from typing import ClassVar, Iterator

from .congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
)
from .hecke import _check_max_k, hecke_terms
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


_VERDICTS = tuple(Verdict)
_CODES = {verdict: code for code, verdict in enumerate(_VERDICTS, 1)}

# Split the verdicts only when the odd values of 2^64 and above, the only
# ones that can reach a modular power past 64 bits, weigh this much: the sum of their
# squared bit lengths.  On a 2-core host their verdicts take 0.4-0.8 ns per
# unit, about 8 ms here, of which a two-way split saves about 4 ms; a fork
# round trip (map one byte, fork, the child writes it, reap) takes 2.5 ms
# (median of 60 runs, quartiles 2.4-2.6 ms, Python 3.11.7, in a process
# holding a 5000-term table).  The 6-7 ms batches below it ran as fast or
# slower forked.
_FORK_MIN_WORK = 15_000_000


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
    note: ClassVar[str] = _SAMPLE_NOTE

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


def _least_factor(n: int) -> int:
    """The least prime factor of the odd n >= 3."""
    return next((d for d in range(3, isqrt(n) + 1, 2) if n % d == 0), n)


def index_divisor(row: dict[int, int] | list[int], k: int) -> int:
    """A proper divisor of |row[k]| found by the index sieve, or 1.

    row[j] is tau(p^{2j}) of one prime p, the Lucas term u_{2j+1} of
    P = tau(p), Q = p^11, with n = 2k + 1.  Only row[k] and, for composite
    n, row[(d - 1) / 2] = u_d are read, d the least prime factor of n.
    """
    n = 2 * k + 1
    value = abs(row[k])
    d = _least_factor(n)
    if d < n:
        divisor = abs(row[(d - 1) // 2])
        return divisor if 1 < divisor < value and value % divisor == 0 else 1
    divisor = gcd(value, _sieve_product(n))
    return divisor if divisor < value else 1


def _verdict_for(row: dict[int, int], k: int) -> Verdict:
    """The verdict on row[k], where row maps j to tau(p^{2j}) of one p."""
    value = abs(row[k])
    if value == 0:
        return Verdict.ZERO
    if value == 2:
        return Verdict.PLUS_MINUS_TWO
    if value % 2 == 0:
        return Verdict.COMPOSITE
    if value < 2**64:
        prime = is_probable_prime(value)
    else:
        prime = not has_small_factor(value) and index_divisor(row, k) == 1 and passes_strong_tests(value)
    return Verdict.PROBABLE_PRIME if prime else Verdict.COMPOSITE


# A point is (p, k, row): row maps j to tau(p^{2j}) for the j that p's
# verdicts read, and is shared by every point of that p.
_Point = tuple[int, int, dict[int, int]]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (nor, on some platforms, fork)
        return 1


def _decide(points: list[_Point], share: list[int], codes: mmap.mmap) -> None:
    """Write 1 + the position of its verdict in _VERDICTS at each index in share."""
    for i in share:
        _, k, row = points[i]
        codes[i] = _CODES[_verdict_for(row, k)]


def _verdicts(points: list[_Point]) -> list[Verdict]:
    """The verdict of every point, split across the usable cores when that pays.

    Only odd values of 2^64 and above can reach a modular power past 64
    bits, so only they are dealt out: sorted by bit length and dealt in turn, the shares
    carry near-equal work.  One child per share but the last, which the
    parent keeps with every cheap point.  Every process writes its share's
    verdicts into one map shared across the fork (_decide), so a 0 left in
    it is a verdict nobody wrote.
    """
    if not points:
        return []
    bits = [row[k].bit_length() if row[k] & 1 else 0 for _, k, row in points]
    heavy = sorted((i for i, b in enumerate(bits) if b > 64), key=bits.__getitem__, reverse=True)
    workers = min(_usable_cores(), len(heavy))
    if workers < 2 or threading.active_count() > 1 or sum(bits[i] ** 2 for i in heavy) < _FORK_MIN_WORK:
        workers = 1
    else:
        # Children inherit the sieve products rather than each building its own.
        for n in {2 * points[i][1] + 1 for i in heavy}:
            if is_probable_prime(n):
                _sieve_product(n)
    shares = [heavy[j::workers] for j in range(workers)]
    own = [i for i, b in enumerate(bits) if b <= 64] + shares.pop()
    with mmap.mmap(-1, len(points)) as codes:
        children: list[int] = []  # forked, not yet reaped
        try:
            for share in shares:
                try:
                    pid = os.fork()
                except OSError:
                    own += share  # no fork: the parent does this share too
                    continue
                if pid == 0:
                    status = 1
                    try:
                        # An interrupt is the parent's to answer: it kills this child.
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        _decide(points, share, codes)
                        status = 0
                    finally:
                        os._exit(status)
                children.append(pid)
            _decide(points, own, codes)
            while children:
                pid = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status != 0:
                    raise RuntimeError(f"verdict worker {pid} exited with status {status}")
        except BaseException:
            for pid in children:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        written = codes[:]
    if 0 in written:
        raise RuntimeError(f"{written.count(0)} of {len(points)} verdicts were never written")
    return [_VERDICTS[code - 1] for code in written]


def search_prime_tau(
    p_max: int,
    k_max: int,
    value_cap: int,
    *,
    table: TauTable,
) -> list[SearchHit]:
    """All grid hits with |tau(p^{2k})| <= value_cap, ordered by (p, k);
    k_max <= DEFAULT_MAX_K."""
    if p_max < 1 or k_max < 1:
        raise ValueError("p_max and k_max must be >= 1")
    _check_max_k(k_max)
    if value_cap < 0:
        raise ValueError("value_cap must be >= 0")
    if table.limit < p_max:
        raise ValueError(f"table covers 1..{table.limit}, need 1..{p_max}")

    points: list[_Point] = []
    low = -value_cap
    for p in primes_up_to(p_max):
        # Each value over the cap is dropped as it comes (module docstring).
        row = {k: v for k, v in enumerate(_terms(p, table[p], k_max), 1) if low <= v <= value_cap}
        points += [(p, k, row) for k in row]
    return _hits(points, _verdicts(points))


def rebuild_hits(claims: dict[tuple[int, int], Verdict], *, table: TauTable) -> list[SearchHit]:
    """The search's hits at the claimed (p, k), in the claims' order; p a prime
    <= table.limit, 1 <= k <= DEFAULT_MAX_K.  Every verdict is decided afresh
    except a Composite claimed for an odd value: it can only lower a census."""
    # The claimed k and the row[(d - 1) / 2] that index_divisor reads.
    read: dict[int, set[int]] = {}
    for p, k in claims:
        read.setdefault(p, set()).update((k, (_least_factor(2 * k + 1) - 1) // 2))
    rows = {p: {j: v for j, v in enumerate(_terms(p, table[p], max(ks)), 1) if j in ks} for p, ks in read.items()}
    verdicts = [
        claim if claim is Verdict.COMPOSITE and rows[p][k] & 1 else _verdict_for(rows[p], k)
        for (p, k), claim in claims.items()
    ]
    return _hits([(p, k, rows[p]) for p, k in claims], verdicts)


def _terms(p: int, tau_p: int, k_max: int) -> Iterator[int]:
    """tau(p^2), tau(p^4), ..., tau(p^{2 k_max}) of the prime p."""
    return islice(hecke_terms(tau_p, p**11), 2, 2 * k_max + 1, 2)


def _hits(points: list[_Point], verdicts: list[Verdict]) -> list[SearchHit]:
    """The hit at each point, each probable prime checked mod 23."""
    classes = {p: classify_mod23(p) for p in {p for p, _, _ in points}}
    hits: list[SearchHit] = []
    for (p, k, row), verdict in zip(points, verdicts):
        cls = classes[p]
        value = row[k]
        residue = value % 23
        if (
            verdict is Verdict.PROBABLE_PRIME
            and cls.tag is not Class23Tag.IS_TWENTY_THREE
            and residue not in allowed_residues_for_prime_value(k)
        ):
            raise RuntimeError(
                "mod-23 admissibility violated: "
                f"p={p} k={k} residue={residue} class={cls.tag.value} "
                f"allowed={sorted(allowed_residues_for_prime_value(k))} "
                f"value of {value.bit_length()} bits"
            )
        hits.append(SearchHit(p, k, value, residue, cls, verdict))
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
