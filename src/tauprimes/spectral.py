"""Even-index polynomial structure of tau(p^{2k}).

Writing x = p^11 and y = tau(p)^2, the value tau(p^{2k}) is a homogeneous
degree-k integer polynomial G_k(x, y), monic in y, satisfying

    G_k = (y - 2x) G_{k-1} - x^2 G_{k-2},   G_0 = 1,  G_1 = y - x.

In closed form x^i y^{k-i} has coefficient (-1)^i C(2k-i, i): Lucas's
expansion of u_{2k+1}(tau(p), p^11) (E. Lucas, Amer. J. Math. 1 (1878)).

Dehomogenized at x = 1, G_k(1, y) has the k simple real roots
alpha_{j,k} = 4 cos^2(pi j / (2k+1)), j = 1..k, all in (0, 4).  The same
local roots give |tau(p^{n-1})| as a product of cyclotomic factor
magnitudes |Phi_d(alpha, beta)| over divisors d > 1 of n.

root_set takes one cosine and builds the rest by Chebyshev's recurrence in
fixed point; each root is bit-identical to the per-root cosine _alpha,
which it calls itself for the few roots near a rounding midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import NamedTuple

import mpmath
from mpmath import libmp

from .errors import BudgetExceededError
from .hecke import CLOSED_FORM_DIGITS, PrimeLocalData, hecke_terms, local_angle

DEFAULT_MAX_K = 10_000

# root_set's fixed-point cosines carry this many bits beyond the context
# precision (plus 2 bitlen(2k+1)), and defer to mpmath.cos for any root whose
# value lies within 2^-_MIDPOINT_MARGIN_BITS ulp of a rounding midpoint.
_GUARD_BITS = 64
_MIDPOINT_MARGIN_BITS = 6


def _working_digits(k: int, precision_digits: int | None) -> int:
    """precision_digits, or max(50, 4k) when None; at least 20."""
    digits = max(50, 4 * k) if precision_digits is None else precision_digits
    if digits < 20:
        raise ValueError("precision_digits must be >= 20")
    return digits


@dataclass(frozen=True)
class EvenIndexPoly:
    """G_k as integer coefficients; coeffs[i] multiplies x^i y^{k-i}."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0 or len(self.coeffs) != self.k + 1:
            raise ValueError("need exactly k+1 coefficients")
        if self.coeffs[0] != 1:
            raise ValueError("G_k is monic in y")


@dataclass(frozen=True)
class RootSet:
    """Roots of G_k(1, y) in decreasing order, at a recorded precision."""

    k: int
    alphas: tuple[mpmath.mpf, ...]
    precision_digits: int


class ApproximationQuality(NamedTuple):
    j_star: int
    distance: mpmath.mpf
    threshold: mpmath.mpf
    triggered: bool


def _check_max_k(k: int) -> None:
    if k > DEFAULT_MAX_K:
        raise BudgetExceededError(f"k = {k} exceeds the ceiling {DEFAULT_MAX_K}")


def even_index_poly(k: int) -> EvenIndexPoly:
    """Coefficients of G_k, 0 <= k <= DEFAULT_MAX_K: c_i = (-1)^i C(2k-i, i)
    by Lucas's expansion of u_{2k+1}(sqrt(y), x), each from the one before
    by the exact ratio -(2k-2i)(2k-2i-1) / ((i+1)(2k-i)), in O(k) steps."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_max_k(k)
    coeffs = [1]
    for i in range(k):
        coeffs.append(-coeffs[-1] * (2 * k - 2 * i) * (2 * k - 2 * i - 1) // ((i + 1) * (2 * k - i)))
    return EvenIndexPoly(k, tuple(coeffs))


def eval_even_poly(poly: EvenIndexPoly, x: int, y: int) -> int:
    """Exact integer value of G_k(x, y)."""
    k = poly.k
    ypow = [1] * (k + 1)
    for i in range(1, k + 1):
        ypow[i] = ypow[i - 1] * y
    total = 0
    xp = 1
    for i, c in enumerate(poly.coeffs):
        total += c * xp * ypow[k - i]
        xp *= x
    return total


def eval_dehomogenized(poly: EvenIndexPoly, y):
    """G_k(1, y) by Horner; y may be an int or an mpmath number."""
    total = poly.coeffs[0]
    for c in poly.coeffs[1:]:
        total = total * y + c
    return total


def _alpha(j: int, k: int) -> mpmath.mpf:
    """alpha_{j,k} = 4 cos^2(pi j/(2k+1)) at the current working precision."""
    return 4 * mpmath.cos(mpmath.pi * j / (2 * k + 1)) ** 2


def root_set(k: int, precision_digits: int | None = None) -> RootSet:
    """alpha_{j,k} = 4 cos^2(pi j/(2k+1)), j = 1..k, strictly decreasing.

    Each root is bit-identical to _alpha(j, k) at the same precision, but
    the k cosines come from one: with n = 2k+1 and p the context precision
    in bits, Chebyshev's recurrence C_{j+1} = 2 cos(pi/n) C_j - C_{j-1}
    runs in fixed point at W = p + _GUARD_BITS + 2 bitlen(n) bits, where
    its error stays below about k n / pi units of 2^-W.  _alpha takes the
    cosine of x_j = mpmath.pi * j / n, rounded to p bits, not of pi j/n, so
    C_j gets the first-order correction -(x_j - pi j/n) sin(pi j/n); as
    |x_j - pi j/n| < 2^(2-p), a float sine suffices and the dropped square
    is below 2^(4-2p).  The result, rounded to nearest at p bits, is what
    mpmath.cos returns unless it lies within 2^-_MIDPOINT_MARGIN_BITS ulp of
    a rounding midpoint, where mpmath.cos's own error could decide the last
    bit; such roots are taken from _alpha itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_max_k(k)
    digits = _working_digits(k, precision_digits)
    n = 2 * k + 1
    with mpmath.workdps(digits):
        prec = mpmath.mp.prec
        wide = prec + _GUARD_BITS + 2 * n.bit_length()
        pi_wide = libmp.pi_fixed(wide)
        cos1 = libmp.to_fixed(libmp.mpf_cos(libmp.from_man_exp(pi_wide // n, -wide), wide), wide)
        alphas = []
        prev, cur = 1 << wide, cos1  # C_0, C_1 scaled by 2^wide
        for j in range(1, k + 1):
            _, man, exp, _ = (mpmath.pi * j / n)._mpf_  # _alpha's argument x_j
            delta = (man << (exp + wide)) - pi_wide * j // n
            value = cur - int(delta * math.sin(math.pi * j / n))
            shift = value.bit_length() - prec  # one ulp at p bits is 2^shift
            rest = value & ((1 << shift) - 1)
            if abs(rest - (1 << (shift - 1))) < 1 << (shift - _MIDPOINT_MARGIN_BITS):
                alphas.append(_alpha(j, k))
            else:
                c = mpmath.mp.make_mpf(libmp.from_man_exp(value, -wide, prec, libmp.round_nearest))
                alphas.append(4 * c**2)
            prev, cur = cur, ((cos1 * cur) >> (wide - 1)) - prev
    return RootSet(k, tuple(alphas), digits)


def min_gap(k: int, precision_digits: int | None = None) -> mpmath.mpf:
    """Smallest distance between distinct roots of G_k(1, y); k >= 2.

    With n = 2k+1 the gap alpha_{j-1} - alpha_j is 4 sin(pi (2j-1)/n) sin(pi/n).
    Sine is concave on (0, pi), so over j = 2..k it is least at an end, and
    sin(pi (2k-1)/n) = sin(2 pi/n) <= sin(3 pi/n) because 5 pi/n <= pi.
    """
    if k < 2:
        raise ValueError("k must be >= 2 for a gap to exist")
    with mpmath.workdps(_working_digits(k, precision_digits)):
        a = mpmath.pi / (2 * k + 1)
        return 4 * mpmath.sin(a) * mpmath.sin(2 * a)


def cyclotomic_factor_magnitudes(local: PrimeLocalData, n: int) -> list[tuple[int, mpmath.mpf]]:
    """|Phi_d(alpha, beta)| for each divisor d > 1 of n, ascending in d.

    alpha, beta are the conjugate local roots, taken from local_angle at
    CLOSED_FORM_DIGITS digits; the product over all listed d equals
    |tau(p^{n-1})| because alpha^n - beta^n factors through the
    homogenized cyclotomic polynomials.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out = []
    with mpmath.workdps(CLOSED_FORM_DIGITS):
        r, theta = local_angle(local)
        alpha = r * mpmath.exp(mpmath.mpc(0, theta))
        beta = mpmath.conj(alpha)
        for d in range(2, n + 1):
            if n % d:
                continue
            mag = mpmath.mpf(1)
            for m in range(1, d + 1):
                if gcd(m, d) == 1:
                    zeta = mpmath.expjpi(mpmath.mpf(2 * m) / d)
                    mag *= abs(alpha - zeta * beta)
            out.append((d, mag))
    return out


def growth_check(local: PrimeLocalData, k_max: int) -> list[tuple[int, bool]]:
    """Exact comparisons |tau(p^k)| > 2^k for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    terms = islice(hecke_terms(local.tau_p, local.x_p), 1, k_max + 1)
    return [(k, abs(t) > 2**k) for k, t in enumerate(terms, start=1)]


def approximation_quality(
    local: PrimeLocalData, k: int, precision_digits: int | None = None
) -> ApproximationQuality:
    """How closely tau(p)^2 / p^11 approaches a root of G_k(1, y).

    Returns the 1-based index j* of the nearest root alpha_{j,k}, the
    distance, and the threshold 1 / (64 h^{5/2}), where h = max(|a|, b) for
    the ratio a/b in lowest terms; triggered means the distance dips below
    the threshold, which would contradict the count bounds if it happened
    often.

    alpha(t) = 4 cos^2(pi t/(2k+1)) falls strictly on [0, k + 1/2] and takes
    the ratio r at j_c = (2k+1)/pi * acos(sqrt(r)/2), with sqrt(r)/2 clamped
    to 1 when r >= 4 (tau(p) past Deligne's bound).  Every alpha_j with
    j <= floor(j_c) is >= r and every later one is <= r, so the nearest root
    is alpha at floor(j_c) or floor(j_c) + 1, taken within 1..k.  Only the
    window floor(j_c) - 1 .. floor(j_c) + 2 is evaluated; its extra index on
    each side absorbs rounding in acos, and roots outside it are further from
    r by at least the least root gap.  Each alpha_j is the same number
    root_set gives, so j* (ties to the smaller j), the distance and the
    threshold are those of a scan over the whole root set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    digits = _working_digits(k, precision_digits)
    approx = Fraction(local.y_p, local.x_p)
    height = max(abs(approx.numerator), approx.denominator)
    with mpmath.workdps(digits):
        ratio = mpmath.mpf(approx.numerator) / approx.denominator
        j_c = (2 * k + 1) / mpmath.pi * mpmath.acos(min(mpmath.sqrt(ratio) / 2, 1))
        floor = int(mpmath.floor(j_c))
        window = range(max(1, floor - 1), min(k, floor + 2) + 1)
        distances = {j: abs(_alpha(j, k) - ratio) for j in window}
        j_star = min(distances, key=distances.__getitem__)
        distance = distances[j_star]
        threshold = 1 / (64 * mpmath.power(height, mpmath.mpf(5) / 2))
        return ApproximationQuality(j_star, distance, threshold, bool(distance < threshold))
