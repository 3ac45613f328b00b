"""Explicit count bounds for prime tau values in arithmetic progressions mod 23.

All evaluations use natural logarithms on a private mpmath context fixed at
DEFAULT_DPS = 50 digits, comfortably past the 30 significant digits the
report promises; the values are of its mpf class and compute at 50 digits,
whatever mpmath.mp's precision.  Constants that are ineffective in the
underlying theorems are never given numeric values; they ride along as
caveat strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import ClassVar

import mpmath

from .congruence import excluded_b_set
from .hecke import _check_max_k

DEFAULT_DPS = 50
CROSSOVER_M_MAX = 200  # last decade M that positivity_crossover scans
# Set once, so threads share it; keep fprod, which sets the precision, off it.
# An int N enters as _CTX.mpf((N, 0)), rounded at DEFAULT_DPS: the same bits as
# the exact int -> mpf conversion, which is quadratic in N's trailing zero bits.
_CTX = mpmath.MPContext()
_CTX.dps = DEFAULT_DPS
_LOG4 = _CTX.log(4)  # of the per-k bound, computed once rather than for every k

CAVEATS = (
    "the zero-free-region constant in the progression prime counts is ineffective; "
    "the bracket below is asserted only for x beyond an unspecified threshold",
    "the root-separation constant for the even-index polynomials is effective in "
    "principle but not computed here; only its exponent structure is used",
    "the approximation-count constant 96000 is explicit, but the height inequality "
    "it feeds on holds only for k >= 3",
)


@dataclass(frozen=True)
class BoundReport:
    """Every explicit bound evaluated at one ceiling N, plus caveat lines."""

    n: int
    k_lo: int
    k_hi: mpmath.mpf
    per_k_bound: dict[int, mpmath.mpf]
    attainable_ceiling: mpmath.mpf
    progression_floor: mpmath.mpf
    bracket: tuple[mpmath.mpf, mpmath.mpf]
    density: Fraction
    sqrt_sample_ceiling: mpmath.mpf
    census_sample_ceiling: mpmath.mpf
    caveats: ClassVar[tuple[str, ...]] = CAVEATS


def admissible_k_range(n: int) -> tuple[int, mpmath.mpf]:
    """(3, log N / (2 log 2)): the k window where tau(p^{2k}) can be prime below N."""
    if n < 2:
        raise ValueError("N must be >= 2")
    return 3, _CTX.log(_CTX.mpf((n, 0))) / (2 * _CTX.log(2))


def bvdp_count_bound(k: int) -> mpmath.mpf:
    """4 log((k+1) log 4) + 96000 (log k)^2 log(200 log k), the per-k cap on
    rational approximations close enough to a root of G_k(1, y); 3 <= k <= DEFAULT_MAX_K.
    Computed once per k in a process, at DEFAULT_DPS."""
    if k < 3:
        raise ValueError("k must be >= 3")
    _check_max_k(k)
    return _bvdp(k)


@cache
def _bvdp(k: int) -> mpmath.mpf:
    k_ = _CTX.mpf(k)
    log_k = _CTX.log(k_)
    return 4 * _CTX.log((k_ + 1) * _LOG4) + 96000 * log_k**2 * _CTX.log(200 * log_k)


def attainable_prime_ceiling(n: int) -> mpmath.mpf:
    """N^{9/10} log N / (2 log 2): cap on progression primes in [-N, N] that
    can occur as tau(p^{2k}) over the admissible k window."""
    if n < 1:
        raise ValueError("N must be >= 1")
    n_ = _CTX.mpf((n, 0))
    return _CTX.power(n_, _CTX.mpf(9) / 10) * _CTX.log(n_) / (2 * _CTX.log(2))


def progression_decade_floor(m) -> mpmath.mpf:
    """7 * 10^M / (11 log 10 (M+1)): floor on signed primes of one fixed
    nonzero class mod 23 with 10^M <= |l| <= 10^{M+1}; M >= 1."""
    m_ = _CTX.mpf(m)
    if m_ < 1:
        raise ValueError("M must be >= 1")
    return 7 * _CTX.power(10, m_) / (11 * _CTX.log(10) * (m_ + 1))


def pi_bracket(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(0.9, 1.1) * x / (11 log x) around the signed-class prime count up to x.

    Holds for x beyond an ineffective threshold; reported unconditionally
    with that caveat attached at the report level.
    """
    x_ = _CTX.mpf((x, 0) if isinstance(x, int) else x)
    if x_ <= 1:
        raise ValueError("x must be > 1")
    center = x_ / (11 * _CTX.log(x_))
    return (_CTX.mpf(9) / 10 * center, _CTX.mpf(11) / 10 * center)


def density_fraction() -> Fraction:
    """Dirichlet density of the signed classes covered by the exclusion list."""
    return Fraction(len(excluded_b_set()), 22)


def _window_end(n: int) -> int:
    """ceil(log_4 N), exactly, from N's bit length: the k window is every
    k >= 3 with 4^k < N.  Not k_hi rounded up, which comes out a hair above
    j at many N = 4^j and exactly j at 4^j + 1 past 50 digits."""
    return ((n - 1).bit_length() + 1) // 2


def decade_margin(m: int) -> mpmath.mpf:
    """Floor minus ceiling at N = 10^{M+1}: positive once the progression
    supply provably outruns the attainable tau values."""
    n = 10 ** (m + 1)
    k_count = _window_end(n) - 3
    return progression_decade_floor(m) - attainable_prime_ceiling(n) * k_count


def positivity_crossover() -> int | None:
    """Smallest M with decade_margin positive from M through CROSSOVER_M_MAX, or None."""
    first = None
    for m in range(1, CROSSOVER_M_MAX + 1):
        if decade_margin(m) > 0:
            if first is None:
                first = m
        else:
            first = None
    return first


def bound_report(n: int) -> BoundReport:
    """All bounds evaluated at ceiling N in one struct; the k window must end
    at or below DEFAULT_MAX_K, so N <= 4^(DEFAULT_MAX_K + 1)."""
    end = _window_end(n)
    _check_max_k(end - 1)  # refused before any per-k bound
    k_lo, k_hi = admissible_k_range(n)
    per_k = {k: _bvdp(k) for k in range(k_lo, end)}
    n_ = _CTX.mpf((n, 0))
    m = _CTX.log10(n_) - 1
    floor = progression_decade_floor(m) if m >= 1 else _CTX.nan
    sqrt_ceiling = _CTX.sqrt(n_)
    census_ceiling = sqrt_ceiling + _CTX.power(n_, _CTX.mpf(3) / 11)
    return BoundReport(
        n=n,
        k_lo=k_lo,
        k_hi=k_hi,
        per_k_bound=per_k,
        attainable_ceiling=attainable_prime_ceiling(n),
        progression_floor=floor,
        bracket=pi_bracket(n_),
        density=density_fraction(),
        sqrt_sample_ceiling=sqrt_ceiling,
        census_sample_ceiling=census_ceiling,
    )
