"""Explicit count bounds for prime tau values in arithmetic progressions mod 23.

All evaluations use natural logarithms at the fixed working precision
DEFAULT_DPS = 50 digits, comfortably past the 30 significant digits the
report promises.  Constants that are ineffective in the underlying theorems
are never given numeric values; they ride along as caveat strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, NamedTuple, Sequence

import mpmath
from mpmath.libmp import from_int, mpf_add, mpf_log, mpf_mul, mpf_mul_int, mpf_pow_int, round_nearest

from ._precision import workdps

DEFAULT_DPS = 50
CROSSOVER_M_MAX = 200  # last decade M that positivity_crossover scans

CAVEATS = (
    "the zero-free-region constant in the progression prime counts is ineffective; "
    "the bracket below is asserted only for x beyond an unspecified threshold",
    "the root-separation constant for the even-index polynomials is effective in "
    "principle but not computed here; only its exponent structure is used",
    "the approximation-count constant 96000 is explicit, but the height inequality "
    "it feeds on holds only for k >= 3",
)


class DirichletSum(NamedTuple):
    partial_sum: mpmath.mpf
    normalizer: mpmath.mpf
    ratio: mpmath.mpf


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
    with workdps(DEFAULT_DPS):
        return 3, mpmath.log(n) / (2 * mpmath.log(2))


def bvdp_count_bound(k: int) -> mpmath.mpf:
    """4 log((k+1) log 4) + 96000 (log k)^2 log(200 log k), the per-k cap on
    rational approximations close enough to a root of G_k(1, y); k >= 3."""
    if k < 3:
        raise ValueError("k must be >= 3")
    with workdps(DEFAULT_DPS):
        return mpmath.mp.make_mpf(_bvdp_bounds(range(k, k + 1))[0])


# bvdp_count_bound(k) for k = 3, 4, ... as raw libmp values at DEFAULT_DPS;
# bound_report grows it to the largest window asked for in this process.
_PER_K_BOUNDS: tuple[tuple, ...] = ()


def _per_k_bounds(k_end: int) -> tuple[tuple, ...]:
    """The memo, first grown to cover every k < k_end.  Growing it binds a new
    tuple and never changes the old one, so a tuple already handed out stays
    a correct prefix; the precision lock keeps two threads from growing it
    at once."""
    global _PER_K_BOUNDS
    with workdps(DEFAULT_DPS):
        memo = _PER_K_BOUNDS
        if 3 + len(memo) < k_end:
            memo += tuple(_bvdp_bounds(range(3 + len(memo), k_end)))
            _PER_K_BOUNDS = memo
    return memo


def _bvdp_bounds(ks: range) -> list[tuple]:
    """bvdp_count_bound over ks as raw libmp values at the working precision:
    the libmp calls, order and rounding of the mpf operators on k_ = mpf(k),
    log_k = log(k_): 4*log((k_+1)*log(4)) + 96000*log_k**2*log(200*log_k)."""
    prec, rnd = mpmath.mp.prec, round_nearest
    log4 = mpf_log(from_int(4), prec, rnd)
    out = []
    for k in ks:
        k_ = from_int(k, prec, rnd)
        log_k = mpf_log(k_, prec, rnd)
        first = mpf_log(mpf_mul(mpf_add(k_, from_int(1), prec, rnd), log4, prec, rnd), prec, rnd)
        second = mpf_mul_int(mpf_pow_int(log_k, 2, prec, rnd), 96000, prec, rnd)
        third = mpf_log(mpf_mul_int(log_k, 200, prec, rnd), prec, rnd)
        out.append(mpf_add(mpf_mul_int(first, 4, prec, rnd), mpf_mul(second, third, prec, rnd), prec, rnd))
    return out


def attainable_prime_ceiling(n: int) -> mpmath.mpf:
    """N^{9/10} log N / (2 log 2): cap on progression primes in [-N, N] that
    can occur as tau(p^{2k}) over the admissible k window."""
    if n < 1:
        raise ValueError("N must be >= 1")
    with workdps(DEFAULT_DPS):
        n_ = mpmath.mpf(n)
        return mpmath.power(n_, mpmath.mpf(9) / 10) * mpmath.log(n_) / (2 * mpmath.log(2))


def progression_decade_floor(m) -> mpmath.mpf:
    """7 * 10^M / (11 log 10 (M+1)): floor on signed primes of one fixed
    nonzero class mod 23 with 10^M <= |l| <= 10^{M+1}; M >= 1."""
    with workdps(DEFAULT_DPS):
        m_ = mpmath.mpf(m)
        if m_ < 1:
            raise ValueError("M must be >= 1")
        return 7 * mpmath.power(10, m_) / (11 * mpmath.log(10) * (m_ + 1))


def pi_bracket(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(0.9, 1.1) * x / (11 log x) around the signed-class prime count up to x.

    Holds for x beyond an ineffective threshold; reported unconditionally
    with that caveat attached at the report level.
    """
    with workdps(DEFAULT_DPS):
        x_ = mpmath.mpf(x)
        if x_ <= 1:
            raise ValueError("x must be > 1")
        center = x_ / (11 * mpmath.log(x_))
        return (mpmath.mpf(9) / 10 * center, mpmath.mpf(11) / 10 * center)


def density_fraction() -> Fraction:
    """Dirichlet density of the signed classes covered by the exclusion list."""
    return Fraction(18, 22)


def dirichlet_partial_sum(primes: Sequence[int], s) -> DirichletSum:
    """sum 1/|p|^s over signed primes, with the s->1 normalizer 2 log(1/(s-1))."""
    with workdps(DEFAULT_DPS):
        s_ = mpmath.mpf(s)
        if s_ <= 1:
            raise ValueError("s must be > 1")
        for p in primes:
            if abs(p) < 2:
                raise ValueError(f"{p} is not a signed prime")
        total = mpmath.fsum(mpmath.power(abs(p), -s_) for p in primes)
        normalizer = 2 * mpmath.log(1 / (s_ - 1))
        # The normalizer is the s -> 1+ density scale; it vanishes at s = 2.
        ratio = total / normalizer if normalizer != 0 else mpmath.inf
        return DirichletSum(total, normalizer, ratio)


def decade_margin(m: int) -> mpmath.mpf:
    """Floor minus ceiling at N = 10^{M+1}: positive once the progression
    supply provably outruns the attainable tau values."""
    with workdps(DEFAULT_DPS):
        n = 10 ** (m + 1)
        _, k_hi = admissible_k_range(n)
        k_count = mpmath.ceil(k_hi) - 3
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
    """All bounds evaluated at ceiling N in one struct."""
    k_lo, k_hi = admissible_k_range(n)
    with workdps(DEFAULT_DPS):
        window = range(k_lo, int(mpmath.ceil(k_hi)))
        # The window and the memo both start at k = 3.
        per_k = dict(zip(window, map(mpmath.mp.make_mpf, _per_k_bounds(window.stop))))
        m = mpmath.log10(mpmath.mpf(n)) - 1
        floor = progression_decade_floor(m) if m >= 1 else mpmath.mpf("nan")
        n_ = mpmath.mpf(n)
        sqrt_ceiling = mpmath.sqrt(n_)
        census_ceiling = sqrt_ceiling + mpmath.power(n_, mpmath.mpf(3) / 11)
    return BoundReport(
        n=n,
        k_lo=k_lo,
        k_hi=k_hi,
        per_k_bound=per_k,
        attainable_ceiling=attainable_prime_ceiling(n),
        progression_floor=floor,
        bracket=pi_bracket(n),
        density=density_fraction(),
        sqrt_sample_ceiling=sqrt_ceiling,
        census_sample_ceiling=census_ceiling,
    )
