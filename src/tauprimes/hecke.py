"""Multiplicative structure of tau.

tau is multiplicative on coprime arguments and satisfies the local
recurrence tau(p^m) = tau(p) tau(p^{m-1}) - p^11 tau(p^{m-2}), i.e. the
power sums of the roots of x^2 - tau(p) x + p^11.  Everything here is
exact big-integer arithmetic except local_angle, the argument of those
roots, and closed_form_residual, which compares the exact value against
the trigonometric closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle, islice
from typing import Iterator, Mapping

import mpmath

from .errors import BudgetExceededError, DegenerateDiscriminantError, MissingPrimeError
from .series import DEFAULT_LIMIT_CEILING

# Working precision of the trigonometric closed forms of the local roots.
CLOSED_FORM_DIGITS = 60


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


def hecke_terms(tau_p: int, x_p: int, modulus: int | None = None) -> Iterator[int]:
    """Yield tau(p^0), tau(p^1), ... from tau(p) and x_p = p^11, without end.

    This is the one implementation of the order-2 recurrence
    tau(p^m) = tau(p) tau(p^{m-1}) - p^11 tau(p^{m-2}).  With a modulus
    every term is reduced mod it; None means exact integers.
    """
    prev, cur = 1, tau_p
    if modulus is not None:
        prev, cur = prev % modulus, cur % modulus
    yield prev
    while True:
        yield cur
        prev, cur = cur, tau_p * cur - x_p * prev
        if modulus is not None:
            cur %= modulus


def tau_prime_power(local: PrimeLocalData, k: int) -> int:
    """Exact tau(p^k) from the order-2 linear recurrence; k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return next(islice(hecke_terms(local.tau_p, local.x_p), k, None))


def tau_of_n(factorization: Factorization, tau_at_primes: Mapping[int, int]) -> int:
    """tau(n) assembled multiplicatively from tau at the prime factors."""
    total = 1
    for p, e in factorization.factors:
        if p not in tau_at_primes:
            raise MissingPrimeError(p)
        total *= tau_prime_power(PrimeLocalData(p, tau_at_primes[p]), e)
    return total


def local_angle(local: PrimeLocalData) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(r, t) = (p^{11/2}, arccos(tau(p) / (2 p^{11/2}))) at the working precision.

    The local roots are r e^{+-it}; requires tau(p)^2 < 4 p^11 so the angle
    is real and nondegenerate.
    """
    if local.y_p >= 4 * local.x_p:
        raise DegenerateDiscriminantError(
            f"tau({local.p})^2 = {local.y_p} is not strictly below 4*p^11 = {4 * local.x_p}"
        )
    r = mpmath.sqrt(mpmath.mpf(local.x_p))
    return r, mpmath.acos(mpmath.mpf(local.tau_p) / (2 * r))


def closed_form_residual(local: PrimeLocalData, k: int) -> float:
    """Relative gap between exact tau(p^k) and p^{11k/2} sin((k+1)t)/sin(t).

    Here (p^{11/2}, t) is local_angle(local), at CLOSED_FORM_DIGITS digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mpmath.workdps(CLOSED_FORM_DIGITS):
        root, theta = local_angle(local)
        exact = tau_prime_power(local, k)
        approx = root**k * mpmath.sin((k + 1) * theta) / mpmath.sin(theta)
        if exact == 0:
            # 0/0 convention: agree when the closed form is also negligible
            # at the working scale.
            scale = root**k * mpmath.mpf(10) ** (-(CLOSED_FORM_DIGITS - 10))
            return 0.0 if abs(approx) <= scale else float("inf")
        return float(abs(exact - approx) / abs(exact))


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
    prime factors above the ceiling, and BudgetExceededError names n and the
    ceiling; a smaller cofactor > 1 is prime.
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
            f"n = {original} has the factor {n}, whose prime factors all exceed the "
            f"ceiling: tau(p) is computed only for primes p <= {ceiling}"
        )
    if n > 1:
        factors.append((n, 1))
    return Factorization(original, tuple(factors))
