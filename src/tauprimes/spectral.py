"""Even-index polynomial structure of tau(p^{2k}).

Writing x = p^11 and y = tau(p)^2, the value tau(p^{2k}) is a homogeneous
degree-k integer polynomial G_k(x, y), monic in y, satisfying

    G_k = (y - 2x) G_{k-1} - x^2 G_{k-2},   G_0 = 1,  G_1 = y - x.

In closed form x^i y^{k-i} has coefficient (-1)^i C(2k-i, i): Lucas's
expansion of u_{2k+1}(tau(p), p^11) (E. Lucas, Amer. J. Math. 1 (1878)).

Dehomogenized at x = 1, G_k(1, y) has the k simple real roots
alpha_{j,k} = 4 cos^2(pi j / (2k+1)), j = 1..k, all in (0, 4).

|tau(p^{n-1})| is the product of the cyclotomic factors |Phi_d(alpha, beta)|
of the local roots over divisors d > 1 of n; cyclotomic_factor_magnitudes
returns them as exact ints, each a Moebius quotient of the Lucas terms
tau(p^{e-1}), e | d, with no real arithmetic.

_fixed_trig is the one kernel on raw libmp values.  From one cosine-sine
pair of pi/(2k+1), at 64 + 2 bitlen(2k+1) bits past the working precision,
it steps the cosines or sines of pi j/(2k+1) by Chebyshev's recurrence in
fixed point and rounds each as mpmath would, leaving to mpmath the few that
lie near a rounding midpoint.  root_set takes all k roots from it,
approximation_quality the at most four around the ratio's continuous index,
and min_gap its two sines; each result is bit-identical to the mpmath
expression it replaces.

The local roots themselves are r e^{+-it}, with r = p^{11/2} and
cos t = tau(p) / (2r); closed_form_residual checks the exact tau(p^k) from
hecke against the trigonometric closed form r^k sin((k+1)t) / sin(t).

root_set, min_gap and approximation_quality work at max(50, 4k) digits
(approximation_quality finds its window at far fewer bits),
closed_form_residual at CLOSED_FORM_DIGITS, all on a private mpmath context
per thread.  Each real returned is a plain mpmath.mpf of the same bits, so
arithmetic on it runs at the caller's precision; mpmath.mp's is never read
or set.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import mpmath
from mpmath import libmp

from .errors import BudgetExceededError, DegenerateDiscriminantError
from .hecke import DEFAULT_MAX_K, PrimeLocalData, _check_max_k, factorize, hecke_terms, tau_prime_power

# Working precision of the trigonometric closed forms of the local roots.
CLOSED_FORM_DIGITS = 60

# _fixed_trig's fixed-point values carry this many bits beyond the context
# precision (plus 2 bitlen(2k+1)), and defer to mpmath's cosine or sine for
# any value within 2^-_MIDPOINT_MARGIN_BITS ulp of a rounding midpoint.
_GUARD_BITS = 64
_MIDPOINT_MARGIN_BITS = 6


class _Thread(threading.local):
    # One context per thread; each call sets its digits in a workdps block on it.
    def __init__(self):
        self.ctx = mpmath.MPContext()


_THREAD = _Thread()


def _plain(v) -> mpmath.mpf:
    # The same bits as a value of mpmath.mp, which reads no precision to make.
    return mpmath.mp.make_mpf(v._mpf_)


def _working_digits(k: int, precision_digits: int | None) -> int:
    """precision_digits, or max(50, 4k) when None.  A given precision_digits
    must lie in 20 .. 4 DEFAULT_MAX_K, the most the default takes."""
    if precision_digits is None:
        return max(50, 4 * k)
    if precision_digits < 20:
        raise ValueError("precision_digits must be >= 20")
    if precision_digits > 4 * DEFAULT_MAX_K:
        # The value itself may be too long to print.
        raise BudgetExceededError(f"precision_digits exceeds the ceiling {4 * DEFAULT_MAX_K}")
    return precision_digits


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


def _alpha(ctx: mpmath.MPContext, j: int, k: int) -> mpmath.mpf:
    """alpha_{j,k} = 4 cos^2(pi j/(2k+1)) at ctx's precision."""
    return 4 * ctx.cos(ctx.pi * j / (2 * k + 1)) ** 2


def _check_deligne(local: PrimeLocalData) -> None:
    # Only below 4 p^11 are the local roots distinct complex conjugates.
    if local.y_p >= 4 * local.x_p:
        raise DegenerateDiscriminantError(
            f"tau({local.p})^2 = {local.y_p} is not strictly below 4*p^11 = {4 * local.x_p}"
        )


def _local_angle(ctx: mpmath.MPContext, local: PrimeLocalData) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(r, t) = (p^{11/2}, arccos(tau(p) / (2 p^{11/2}))) at ctx's precision.

    The local roots are r e^{+-it}; requires tau(p)^2 < 4 p^11 so the angle
    is real and nondegenerate.
    """
    _check_deligne(local)
    r = ctx.sqrt(ctx.mpf(local.x_p))
    return r, ctx.acos(ctx.mpf(local.tau_p) / (2 * r))


def _fixed_trig(n: int, first: int, last: int, prec: int, sine: bool = False):
    """(j, cos x_j), or (j, sin x_j) with sine, for j = first..last, where
    1 <= first and last < n/2, and x_j = mpf_div(mpf_mul_int(pi, j), n) is
    pi j / n as mpmath forms ctx.pi * j / n at prec bits.  Each value is a
    raw libmp value rounded to nearest at prec bits, or None where it lies
    within 2^-_MIDPOINT_MARGIN_BITS ulp of a rounding midpoint: there
    mpmath's own cosine or sine, whose error could decide the last bit, must
    give it.

    This is the one kernel on raw libmp values.  One mpf_cos_sin call gives
    z = e^(i pi/n) at W = prec + _GUARD_BITS + 2 bitlen(n) bits; z^(first-1)
    by squaring (nothing for first = 1) and one more factor z start
    Chebyshev's recurrence T_{j+1} = 2 cos(pi/n) T_j - T_{j-1}, which the
    cosines and the sines of pi j/n both obey, in fixed point.  Powering and
    recurrence together err by less than about n^2 units of 2^-W, and every
    value is at least sin(pi/(2n)) > 1/n, so that is below 2^(bitlen(n) - 63)
    ulp at prec bits.  The value at x_j, not at pi j/n, gets the first-order
    correction (x_j - pi j/n) T'(pi j/n); as |x_j - pi j/n| < 2^(2-prec), a
    float slope suffices and the dropped square is below 2^(4-2 prec).
    """
    wide = prec + _GUARD_BITS + 2 * n.bit_length()
    pi_wide = libmp.pi_fixed(wide)
    step = tuple(libmp.to_fixed(v, wide) for v in libmp.mpf_cos_sin(libmp.from_man_exp(pi_wide // n, -wide), wide))

    def times(u, v):
        # (cos, sin) pairs multiplied as the complex numbers cos + i sin.
        return (u[0] * v[0] - u[1] * v[1]) >> wide, (u[0] * v[1] + u[1] * v[0]) >> wide

    power, base, e = (1 << wide, 0), step, first - 1
    while e:
        if e & 1:
            power = times(power, base)
        e >>= 1
        if e:
            base = times(base, base)
    # T_{first-1} and T_first scaled by 2^W: item 0 of a pair is the cosine, item 1 the sine.
    prev, cur = power[sine], times(power, step)[sine]
    rnd = libmp.round_nearest
    pi_p, n_p = libmp.mpf_pi(prec, rnd), libmp.from_int(n)
    for j in range(first, last + 1):
        _, man, exp, _ = libmp.mpf_div(libmp.mpf_mul_int(pi_p, j, prec, rnd), n_p, prec, rnd)
        delta = (man << (exp + wide)) - pi_wide * j // n
        t = math.pi * j / n
        value = cur + int(delta * (math.cos(t) if sine else -math.sin(t)))
        shift = value.bit_length() - prec  # one ulp at prec bits is 2^shift
        rest = value & ((1 << shift) - 1)
        if abs(rest - (1 << (shift - 1))) < 1 << (shift - _MIDPOINT_MARGIN_BITS):
            yield j, None
        else:
            yield j, libmp.from_man_exp(value, -wide, prec, rnd)
        prev, cur = cur, ((step[0] * cur) >> (wide - 1)) - prev


def _alphas(ctx: mpmath.MPContext, k: int, first: int, last: int):
    """(j, alpha_{j,k}) for j = first..last, 1 <= first <= last <= k, as raw
    libmp values with the bits of _alpha(ctx, j, k): 4 c^2 for c from
    _fixed_trig, squared with c**2's rounding and multiplied by 4 exactly,
    or _alpha itself where c is None."""
    prec = ctx.prec
    for j, c in _fixed_trig(2 * k + 1, first, last, prec):
        if c is None:
            yield j, _alpha(ctx, j, k)._mpf_
        else:
            yield j, libmp.mpf_shift(libmp.mpf_mul(c, c, prec, libmp.round_nearest), 2)


def root_set(k: int, precision_digits: int | None = None) -> RootSet:
    """alpha_{j,k} = 4 cos^2(pi j/(2k+1)), j = 1..k, strictly decreasing.

    Each root is bit-identical to _alpha(j, k) at the same precision, but
    the k cosines come from one: _alphas steps _fixed_trig's Chebyshev
    recurrence from cos(pi/n), n = 2k+1, and takes the few roots whose
    cosine lies near a rounding midpoint from _alpha itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_max_k(k)
    digits = _working_digits(k, precision_digits)
    ctx = _THREAD.ctx
    with ctx.workdps(digits):
        alphas = tuple(mpmath.mp.make_mpf(alpha) for _, alpha in _alphas(ctx, k, 1, k))
    return RootSet(k, alphas, digits)


def min_gap(k: int, precision_digits: int | None = None) -> mpmath.mpf:
    """Smallest distance between distinct roots of G_k(1, y); 2 <= k <= DEFAULT_MAX_K.

    With n = 2k+1 the gap alpha_{j-1} - alpha_j is 4 sin(pi (2j-1)/n) sin(pi/n).
    Sine is concave on (0, pi), so over j = 2..k it is least at an end, and
    sin(pi (2k-1)/n) = sin(2 pi/n) <= sin(3 pi/n) because 5 pi/n <= pi.

    The value is 4 sin(a) sin(2a) for a = ctx.pi / n, bit for bit: 2a is
    _fixed_trig's x_2, as doubling commutes with rounding, so both sines
    come from its one cosine-sine call, each taken from ctx.sin where it
    lies near a rounding midpoint.
    """
    if k < 2:
        raise ValueError("k must be >= 2 for a gap to exist")
    _check_max_k(k)
    n = 2 * k + 1
    ctx = _THREAD.ctx
    with ctx.workdps(_working_digits(k, precision_digits)):
        a = ctx.pi / n
        sin_a, sin_2a = (
            ctx.sin(j * a) if s is None else ctx.make_mpf(s) for j, s in _fixed_trig(n, 1, 2, ctx.prec, sine=True)
        )
        return _plain(4 * sin_a * sin_2a)


def closed_form_residual(local: PrimeLocalData, k: int) -> float:
    """Relative gap between exact tau(p^k) and p^{11k/2} sin((k+1)t)/sin(t).

    Here (p^{11/2}, t) is the local angle from _local_angle, at
    CLOSED_FORM_DIGITS digits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx = _THREAD.ctx
    with ctx.workdps(CLOSED_FORM_DIGITS):
        root, theta = _local_angle(ctx, local)
        exact = tau_prime_power(local, k)
        approx = root**k * ctx.sin((k + 1) * theta) / ctx.sin(theta)
        if exact == 0:
            # 0/0 convention: agree when the closed form is also negligible
            # at the working scale.
            scale = root**k * ctx.mpf(10) ** (-(CLOSED_FORM_DIGITS - 10))
            return 0.0 if abs(approx) <= scale else float("inf")
        return float(abs(exact - approx) / abs(exact))


def cyclotomic_factor_magnitudes(local: PrimeLocalData, n: int) -> list[tuple[int, int]]:
    """|Phi_d(alpha, beta)| for each divisor d > 1 of n, ascending in d, as
    exact ints whose product is |tau(p^{n-1})|; n - 1 <= DEFAULT_MAX_K.

    alpha, beta are the local roots, with Lucas terms u_e = (alpha^e - beta^e)
    / (alpha - beta) = tau(p^{e-1}) from hecke_terms, held for e | n only.  As
    alpha^n - beta^n is the product of Phi_d(alpha, beta) over d | n, Moebius
    inversion gives Phi_d(alpha, beta) = prod_{e | d} u_e^{mu(d/e)} for d > 1
    (Bilu, Hanrot, Voutier, J. reine angew. Math. 539 (2001)), where d/e runs
    over the squarefree products of d's primes, all of them primes of n.
    Each quotient is exact; a nonzero remainder raises AssertionError.

    Refuses tau(p)^2 >= 4 p^11 and the degenerate pairs, tau(p)^2 in
    {0, p^11, 2 p^11, 3 p^11}: there alpha/beta is a root of unity and some
    u_e is 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_max_k(n - 1)
    _check_deligne(local)
    # Below 4 p^11, tau(p)^2 is a multiple of p^11 exactly at the degenerate pairs.
    if local.y_p % local.x_p == 0:
        raise DegenerateDiscriminantError(
            f"tau({local.p})^2 = {local.y_p} is {local.y_p // local.x_p}*p^11: alpha/beta is a "
            "root of unity, so some tau(p^k) is 0"
        )
    factors = factorize(n).factors
    primes = [q for q, _ in factors]
    divisors = [1]
    for q, a in factors:
        divisors = sorted(d * q**i for d in divisors for i in range(a + 1))
    terms = hecke_terms(local.tau_p, local.x_p)  # stepped from each divisor e | n to the next
    u = {e: next(islice(terms, e - last - 1, None)) for last, e in zip([0, *divisors], divisors)}  # tau(p^{e-1})
    out = []
    for d in divisors[1:]:
        # (s, mu(s)) for each squarefree s | d, so e = d / s.
        moebius = [(1, 1)]
        for q in primes:
            if d % q == 0:
                moebius += [(s * q, -mu) for s, mu in moebius]
        num = math.prod(u[d // s] for s, mu in moebius if mu > 0)
        den = math.prod(u[d // s] for s, mu in moebius if mu < 0)
        factor, rest = divmod(abs(num), abs(den))
        if rest:
            raise AssertionError(f"the Lucas terms' Moebius quotient for Phi_{d} is not exact")
        out.append((d, factor))
    return out


def growth_check(local: PrimeLocalData, k_max: int) -> list[tuple[int, bool]]:
    """Exact comparisons |tau(p^k)| > 2^k for k = 1..k_max, k_max <= DEFAULT_MAX_K."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_max_k(k_max)
    terms = islice(hecke_terms(local.tau_p, local.x_p), 1, k_max + 1)
    return [(k, abs(t) > 2**k) for k, t in enumerate(terms, start=1)]


def approximation_quality(local: PrimeLocalData, k: int) -> ApproximationQuality:
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
    window floor(j_c) - 1 .. floor(j_c) + 2 is evaluated, by _alphas; roots
    outside it are further from r by at least the least root gap.  Each
    alpha_j is the same number root_set gives, so j* (ties to the smaller j),
    the distance and the threshold are those of a scan over the whole root
    set.

    j_c only picks the window, so it is computed at P = bitlen(p^11) +
    bitlen(2k+1) + 16 bits, not at the 4k digits of the roots.  Below
    Deligne's bound 4 p^11 - tau(p)^2 >= 1, so 1 - (sqrt(r)/2)^2 >= 1/(4 p^11):
    sqrt(r)/2, off by under 2^(1-P) at P bits, stays clear of the clamp at 1,
    and acos' is at most about 2 p^(11/2) between the two.  So j_c is off by
    under (2k+1)/pi * 2 p^(11/2) * 2^(1-P) < 2^-16, plus the roundings of
    acos, pi and the product, far under 1/4: floor(j_c) moves by at most one,
    and the window's extra index on each side still holds both candidates.
    At r >= 4 the rounded sqrt(r)/2 is still >= 1, as 4 is exact at any
    precision.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_max_k(k)
    n = 2 * k + 1
    approx = Fraction(local.y_p, local.x_p)
    height = max(abs(approx.numerator), approx.denominator)
    ctx = _THREAD.ctx
    with ctx.workprec(local.x_p.bit_length() + n.bit_length() + 16):
        half_root = ctx.sqrt(ctx.mpf(approx.numerator) / approx.denominator) / 2
        floor = int(ctx.floor(n / ctx.pi * ctx.acos(min(half_root, 1))))
    with ctx.workdps(_working_digits(k, None)):
        ratio = ctx.mpf(approx.numerator) / approx.denominator
        window = _alphas(ctx, k, max(1, floor - 1), min(k, floor + 2))
        distances = {j: abs(ctx.make_mpf(alpha) - ratio) for j, alpha in window}
        j_star = min(distances, key=distances.__getitem__)
        distance = distances[j_star]
        threshold = 1 / (64 * ctx.power(height, ctx.mpf(5) / 2))
        return ApproximationQuality(j_star, _plain(distance), _plain(threshold), bool(distance < threshold))
