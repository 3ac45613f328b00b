"""tau mod 23.

For p != 23 the residue tau(p) mod 23 is decided by how p sits relative
to the quadratic field of discriminant -23: it is 0 when p is a quadratic
non-residue mod 23, 2 when p = a^2 + 23 b^2, and -1 otherwise.  Prime
powers then follow the order-2 recurrence mod 23, which is periodic and
pins down the finitely many residues an odd prime value tau(p^{2k}) can
have: {0, 1, 22, (2k+1) mod 23}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import isqrt

from .hecke import hecke_terms


class Class23Tag(Enum):
    IS_TWENTY_THREE = "IsTwentyThree"
    NON_RESIDUE = "NonResidue"
    PRINCIPAL_FORM = "PrincipalForm"
    SPLIT_NON_PRINCIPAL = "SplitNonPrincipal"


@dataclass(frozen=True)
class Class23:
    """Congruence class of a prime; witness is the (a, b) of p = a^2 + 23 b^2."""

    tag: Class23Tag
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.witness is not None) != (self.tag is Class23Tag.PRINCIPAL_FORM):
            raise ValueError("witness is present exactly for the principal-form class")


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a/q) for odd prime q, via Euler's criterion."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd prime")
    a %= q
    if a == 0:
        return 0
    s = pow(a, (q - 1) // 2, q)
    return -1 if s == q - 1 else s


def classify_mod23(p: int) -> Class23:
    """Class of a prime p: 23 itself, non-residue, a^2+23b^2, or split non-principal."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if p == 23:
        return Class23(Class23Tag.IS_TWENTY_THREE)
    if legendre(p, 23) == -1:
        return Class23(Class23Tag.NON_RESIDUE)
    for b in range(isqrt(p // 23) + 1):
        r = p - 23 * b * b
        a = isqrt(r)
        if a * a == r:
            # a^2 = p is impossible for prime p, so a genuine witness has b >= 1.
            assert b >= 1, f"p={p} is a perfect square, not a prime"
            return Class23(Class23Tag.PRINCIPAL_FORM, (a, b))
    return Class23(Class23Tag.SPLIT_NON_PRINCIPAL)


# Recurrence seeds mod 23: (tau(p) mod 23, p^11 mod 23).  p^11 mod 23 is the
# Legendre symbol (p/23) by Euler's criterion, so it is fixed per class.
_SEEDS = {
    Class23Tag.NON_RESIDUE: (0, 22),
    Class23Tag.PRINCIPAL_FORM: (2, 1),
    Class23Tag.SPLIT_NON_PRINCIPAL: (22, 1),
}


def tau_mod23(cls: Class23, k: int) -> int:
    """tau(p^k) mod 23 for any prime p in the given class (p != 23)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if cls.tag is Class23Tag.IS_TWENTY_THREE:
        raise ValueError("p = 23 has no class-determined residue; use exact tau")
    t1, e = _SEEDS[cls.tag]
    return next(islice(hecke_terms(t1, e, 23), k, None))


def allowed_residues_for_prime_value(k: int) -> frozenset[int]:
    """Residues mod 23 available to an odd prime value tau(p^{2k}), k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return frozenset({0, 1, 22, (2 * k + 1) % 23})


def excluded_b_set() -> frozenset[int]:
    """Residue classes mod 23 that force k >= 3 for any odd prime value tau(p^{2k})."""
    return frozenset({2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})


def parity_law(n: int, tau_n: int) -> bool:
    """True iff tau_n is odd exactly when n is an odd perfect square."""
    odd_square = n % 2 == 1 and isqrt(n) ** 2 == n
    return (tau_n % 2 == 1) == odd_square
