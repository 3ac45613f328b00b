"""Multiplicative structure of tau.

tau is multiplicative on coprime arguments and satisfies the local
recurrence tau(p^m) = tau(p) tau(p^{m-1}) - p^11 tau(p^{m-2}), so
tau(p^k) = U_{k+1} is a term of the Lucas sequence U of x^2 - tau(p) x +
p^11 (U_0 = 0, U_1 = 1).  hecke_terms steps the recurrence, for callers
that read consecutive terms; tau_prime_power reaches a single term by
doubling the index.  Everything here is exact big-integer arithmetic; the
real-number view of the roots is in spectral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle
from typing import Iterator, Mapping

from .errors import BudgetExceededError, MissingPrimeError
from .series import DEFAULT_LIMIT_CEILING

# The largest exponent k the package takes for tau(p^k), G_k and root sets:
# tau(p^k) has up to about 5.5 k log10(p) digits, so past this one
# request could run for minutes and fill memory.
DEFAULT_MAX_K = 10_000


@dataclass(frozen=True)
class PrimeLocalData:
    """A prime together with tau(p); x_p = p^11 and y_p = tau(p)^2 are derived."""

    p: int
    tau_p: int
    x_p: int = field(init=False, repr=False)
    y_p: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        object.__setattr__(self, "x_p", self.p**11)
        object.__setattr__(self, "y_p", self.tau_p * self.tau_p)


@dataclass(frozen=True)
class Factorization:
    """n as an ordered list of (prime, exponent) pairs with product n."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be (increasing prime, exponent >= 1) pairs")
            last = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factor product {prod} != n {self.n}")


def _check_max_k(k: int) -> None:
    if k > DEFAULT_MAX_K:
        raise BudgetExceededError(f"k = {k} exceeds the ceiling {DEFAULT_MAX_K}")


def hecke_terms(tau_p: int, x_p: int) -> Iterator[int]:
    """Yield tau(p^0), tau(p^1), ... from tau(p) and x_p = p^11, without end.

    One step of tau(p^m) = tau(p) tau(p^{m-1}) - p^11 tau(p^{m-2}) per
    term: for callers that read every term, or every other, in order.
    """
    prev, cur = 1, tau_p
    yield prev
    while True:
        yield cur
        prev, cur = cur, tau_p * cur - x_p * prev


def _term(tau_p: int, x_p: int, k: int, modulus: int | None = None) -> int:
    """tau(p^k) = U_{k+1}, from tau(p) and x_p = p^11, in O(log k) products.

    The pair (U_m, U_{m+1}) = (tau(p^{m-1}), tau(p^m)) starts at m = 0 and
    reads the bits of k + 1 from the top.  Each bit doubles m by

        U_{2m}   = U_m (2 U_{m+1} - tau(p) U_m),
        U_{2m+1} = U_{m+1}^2 - p^11 U_m^2,

    three big products and no division, and a 1-bit then steps the pair on
    by U_{m+2} = tau(p) U_{m+1} - p^11 U_m.  The last bit needs only the one
    of the two doublings that is U_{k+1}.  With a modulus the pair is
    reduced at every bit; each product keeps the congruence, so any k is
    cheap.
    """
    u, v = 0, 1  # m = 0
    for bit in bin((k + 1) >> 1)[2:]:
        u, v = u * (2 * v - tau_p * u), v * v - x_p * u * u
        if bit == "1":
            u, v = v, tau_p * v - x_p * u
        if modulus is not None:
            u, v = u % modulus, v % modulus
    term = v * v - x_p * u * u if k % 2 == 0 else u * (2 * v - tau_p * u)
    return term if modulus is None else term % modulus


def tau_prime_power(local: PrimeLocalData, k: int) -> int:
    """Exact tau(p^k), 0 <= k <= DEFAULT_MAX_K: one term, by _term's index doubling."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_max_k(k)
    return _term(local.tau_p, local.x_p, k)


def tau_of_n(factorization: Factorization, tau_at_primes: Mapping[int, int]) -> int:
    """tau(n) assembled multiplicatively from tau at the prime factors."""
    total = 1
    for p, e in factorization.factors:
        if p not in tau_at_primes:
            raise MissingPrimeError(p)
        total *= tau_prime_power(PrimeLocalData(p, tau_at_primes[p]), e)
    return total


# Candidate generator for trial division: 2, 3, 5, 7, then numbers coprime
# to 210 stepped by a fixed wheel of 48 residue gaps.
_WHEEL_FIRST = (2, 3, 5, 7)
_WHEEL_RESIDUES = [r for r in range(11, 11 + 210) if all(r % q for q in _WHEEL_FIRST)]
_WHEEL_GAPS = tuple(
    _WHEEL_RESIDUES[(i + 1) % len(_WHEEL_RESIDUES)] - _WHEEL_RESIDUES[i]
    + (210 if i + 1 == len(_WHEEL_RESIDUES) else 0)
    for i in range(len(_WHEEL_RESIDUES))
)


def factorize(n: int) -> Factorization:
    """Factorization of n >= 1 by trial division up to DEFAULT_LIMIT_CEILING.

    tau(p) is available only for primes p up to that ceiling, so trial
    division stops there.  A cofactor it leaves above ceiling^2 has only
    prime factors above the ceiling, and BudgetExceededError names that
    cofactor and the ceiling, not n: coprime to 10, the cofactor divides a
    in n = a*10^e, so it prints within Python's int->str limit even where n
    does not.  A smaller cofactor > 1 is prime.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ceiling = DEFAULT_LIMIT_CEILING
    original = n
    factors = []
    for c in chain(_WHEEL_FIRST, accumulate(cycle(_WHEEL_GAPS), initial=_WHEEL_RESIDUES[0])):
        if c * c > n or c > ceiling:
            break
        if n % c == 0:
            e = 0
            while n % c == 0:
                n //= c
                e += 1
            factors.append((c, e))
    if n > ceiling * ceiling:
        raise BudgetExceededError(
            f"n has the factor {n}, whose prime factors all exceed the "
            f"ceiling: tau(p) is computed only for primes p <= {ceiling}"
        )
    if n > 1:
        factors.append((n, 1))
    return Factorization(original, tuple(factors))
