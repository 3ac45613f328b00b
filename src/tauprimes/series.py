"""Exact q-expansion of Delta(q) = q * prod_{n>=1} (1 - q^n)^24 = sum tau(n) q^n.

A whole table tau(1..N) comes from delta_series.  The cube of the Euler
product collapses to a sparse signed series over triangular numbers,

    prod_{n>=1} (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2},

so the 24th power is the 8th power of that series.  The cube has only
about sqrt(2N) nonzero terms below degree N, so cube^2 comes from a direct
convolution of those terms (about pi N / 4 pairs).  cube^2 is then packed
into a single base-10^w Decimal (Kronecker substitution) and squared,
giving cube^4, whose limbs are packed again at the width their square
needs and squared once more.  libmpdec multiplies large operands with a
number-theoretic transform, so the whole table costs one sparse
convolution and two big multiplications, each on limbs sized by
Cauchy-Schwarz from the coefficients it squares.

Each coefficient c is written once, as the w-digit limb c + half with
half = 5*10^(w-1); one Decimal of the joined limbs less half in every limb
is the packed series.  Its square plus half in every limb, cut to the low
n*w digits, holds every coefficient d of the square as the limb d + half,
so cube^4 goes to the last stage as digits: each limb is zero-padded to
the wider width, and only the sum of squares that sizes it reads the
limbs as integers.

A few single values tau(n) come from tau_values, by Niebur's convolution
of the divisor sums (D. Niebur, Illinois J. Math. 19, 1975),

    tau(n) = n^4 sigma(n) - 24 sum_{i=1}^{n-1} (35i^4 - 52i^3 n + 18i^2 n^2) sigma(i) sigma(n-i),

which needs one sieve of sigma up to N = max n and an O(n) sum per value,
so a few values cost far less than the table up to N.  Over a whole table
the sums would cost O(N^2).  The sieve adds divisor pairs of odd m only,
about (N/8) ln N small-integer additions, and fills each even m = 2^e o
as sigma(2^e) sigma(o), one slice per power of two.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from math import isqrt
from operator import add, mul
from typing import Iterable, Iterator

from .errors import BudgetExceededError

# Refuse series longer than this unless the caller raises the ceiling;
# 2*10^5 keeps worst-case memory and time at desk scale.
DEFAULT_LIMIT_CEILING = 200_000


@dataclass(frozen=True)
class TauTable:
    """tau(1..limit) as exact integers; table[n] is tau(n), 1-based."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("table must contain at least tau(1)")
        if self.coeffs[0] != 1:
            raise ValueError("tau(1) must be 1")

    @property
    def limit(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self.coeffs):
            raise IndexError(f"n={n} outside table range 1..{len(self.coeffs)}")
        return self.coeffs[n - 1]

    def __len__(self) -> int:
        return len(self.coeffs)

    def items(self) -> Iterator[tuple[int, int]]:
        return enumerate(self.coeffs, start=1)

    def truncated(self, limit: int) -> "TauTable":
        if not 1 <= limit <= len(self.coeffs):
            raise ValueError(f"cannot truncate to {limit}, table holds 1..{len(self.coeffs)}")
        return TauTable(self.coeffs[:limit])


def _refuse_over_ceiling(limit: int, ceiling: int) -> None:
    if limit > ceiling:
        raise BudgetExceededError(
            f"tau({limit}) is past the ceiling: tau(n) is computed only for n <= {ceiling}"
        )


def _cube_terms(limit: int) -> tuple[tuple[int, int], ...]:
    # limit >= 0; always includes the constant term.
    terms = []
    m = 0
    while True:
        e = m * (m + 1) // 2
        if e > limit:
            break
        c = 2 * m + 1
        terms.append((e, c if m % 2 == 0 else -c))
        m += 1
    return tuple(terms)


def _sparse_square(terms: tuple[tuple[int, int], ...], n: int) -> list[int]:
    """Coefficients below degree n of (sum c q^e)^2 by direct convolution;
    terms ascend in e, so each row of pairs e + f < n stops at the first f too big."""
    sq = [0] * n
    for i, (e, c) in enumerate(terms):
        if 2 * e >= n:
            break
        sq[2 * e] += c * c
        c += c  # every pair e < f appears twice in the square
        for f, d in terms[i + 1 :]:
            if e + f >= n:
                break
            sq[e + f] += c * d
    return sq


def _square(limbs: Iterable[str], n: int, w_in: int, w: int) -> str:
    """(sum c_i q^i)^2 below degree n, as the n limbs d_m + half of w digits,
    highest degree first; half = 5*10^(w-1).

    limbs are the n biased limbs c_i + 5*10^(w_in-1), w_in <= w digits each,
    highest degree first; each is zero-padded to w digits here.  Exact when
    every |c_i| < 5*10^(w_in-1) and every |d_m| < half."""
    # Exact arithmetic only: any rounding raises Inexact instead of passing.
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    # x = sum c_i 10^(i*w): one subtraction takes the bias off every limb.
    x = ctx.subtract(
        decimal.Decimal(("0" * (w - w_in)).join(limbs)),
        decimal.Decimal(str(5 * 10 ** (w_in - 1)).zfill(w) * n),
    )
    x = ctx.multiply(x, x)
    # x^2 >= 0 and (a mod M + H) mod M = (a + H) mod M, M = 10^(n*w): one
    # add on the full square biases every limb, a shift at precision n*w
    # keeps the low n*w digits (Decimal % is slow), and zfill restores the
    # top limb's leading zeros.
    x = ctx.add(x, decimal.Decimal(str(5 * 10 ** (w - 1)) * n))
    ctx.prec = n * w
    return str(ctx.shift(x, 0)).zfill(n * w)


def _limb_width(h: list[int]) -> int:
    """Digits of 2 sum h_i^2, a limb width at which _square packs h exactly.

    With w digits, sum h_i^2 < half = 5*10^(w-1).  Cauchy-Schwarz:
    |sum_{i+j=m} h_i h_j| <= sum h_i^2 for every m, and every |h_i| <= h_i^2,
    so every coefficient of h and of its square is below half in size."""
    return len(str(2 * sum(c * c for c in h)))


def delta_series(limit: int, *, ceiling: int = DEFAULT_LIMIT_CEILING) -> TauTable:
    """tau(1..limit) from the sparse cube: one direct convolution gives
    cube^2, then two packed squarings give cube^4 and cube^8, each on limbs
    sized for its own square; cube^4 passes between them as digits.

    Refuses limits above `ceiling` instead of attempting an unbounded
    allocation; raise the ceiling explicitly for larger runs.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _refuse_over_ceiling(limit, ceiling)
    # Delta = q * cube^8, so tau(n) is the cube^8 coefficient at degree n-1.
    h = _sparse_square(_cube_terms(limit - 1), limit)
    w4 = _limb_width(h)
    half = 5 * 10 ** (w4 - 1)
    # |c| < half, so c + half is one limb in [1, 10^w4).
    limbs = (str(c + half).zfill(w4) for c in reversed(h))
    del h  # the exhausted iterator frees the list before the squaring
    s = _square(limbs, limit, w4, w4)
    cube4 = [s[a : a + w4] for a in range(0, len(s), w4)]  # the limbs g_i + half
    del s
    # Any wide enough width is exact, and a limb can be padded, not cut.
    w8 = max(w4, _limb_width([int(c) - half for c in cube4]))
    limbs = iter(cube4)
    del cube4  # as above: the limbs go before the squaring
    s = _square(limbs, limit, w4, w8)
    half = 5 * 10 ** (w8 - 1)
    return TauTable(tuple([int(s[a - w8 : a]) - half for a in range(len(s), 0, -w8)]))


def _divisor_sums(limit: int) -> list[int]:
    """[0, sigma(1), ..., sigma(limit)], sigma(m) the sum of the divisors of m."""
    sigma = [0] * (limit + 1)
    # Odd m: each divisor pair (d, m/d) with d <= sqrt(m) once, both odd:
    # d^2 adds d, and m = d*j with odd j > d adds d + j (one slice of step 2d).
    for d in range(1, isqrt(limit) + 1, 2):
        sigma[d * d] += d
        sigma[d * (d + 2) :: 2 * d] = map(add, sigma[d * (d + 2) :: 2 * d], range(2 * d + 2, d + limit // d + 1, 2))
    # Even m = a*o, a = 2^e >= 2, o odd: sigma is multiplicative and
    # sigma(a) = 2a - 1, so each power of two is one slice read off the odd o.
    a = 2
    while a <= limit:
        sigma[a :: 2 * a] = map((2 * a - 1).__mul__, sigma[1 : limit // a + 1 : 2])
        a *= 2
    return sigma


def tau_values(ns: Iterable[int]) -> dict[int, int]:
    """{n: tau(n)} for each n in ns by Niebur's formula, sharing one sigma sieve.

    Refuses any n above DEFAULT_LIMIT_CEILING, as delta_series does.
    """
    ns = sorted(set(ns))
    if not ns:
        return {}
    if ns[0] < 1:
        raise ValueError("n must be >= 1")
    _refuse_over_ceiling(ns[-1], DEFAULT_LIMIT_CEILING)
    sigma = _divisor_sums(ns[-1])
    out = {}
    for n in ns:
        # sigma(i) sigma(n-i) is even in t = 2i - n, so the part of Niebur's
        # weight odd in t cancels, leaving (35t^4 - 30n^2 t^2 + 3n^4) / 16.
        # c_k = sum_{i=1}^{n-1} t^k sigma(i) sigma(n-i): the terms i < n/2
        # count twice, and i = n/2 (t = 0) only in c_0; 24/16 = 3/2.
        half = (n + 1) // 2
        u = list(map(mul, sigma[1:half], sigma[n - 1 : n - half : -1]))
        t2 = list(map(mul, range(n - 2, 0, -2), range(n - 2, 0, -2)))
        t2u = list(map(mul, t2, u))
        c0 = 2 * sum(u) + (sigma[n // 2] ** 2 if n % 2 == 0 else 0)
        c2, c4 = 2 * sum(t2u), 2 * sum(map(mul, t2, t2u))
        out[n] = n**4 * sigma[n] - 3 * (35 * c4 - 30 * n * n * c2 + 3 * n**4 * c0) // 2
    return out
