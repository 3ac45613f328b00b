"""Exact q-expansion of Delta(q) = q * prod_{n>=1} (1 - q^n)^24 = sum tau(n) q^n.

A whole table tau(1..N) comes from delta_series.  The cube of the Euler
product collapses to a sparse signed series over triangular numbers,

    prod_{n>=1} (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2},

so the 24th power is the 8th power of that series.  The cube is packed
into a single base-10^w Decimal (Kronecker substitution) and squared
twice, giving cube^4; its coefficients are read back and packed again at
the width their square needs, and squared once more.  libmpdec multiplies
large operands with a number-theoretic transform, so the whole table costs
three big multiplications, each on limbs sized from a proven bound for
its own stage.  Each square is reduced mod 10^(n*w) by slicing its digit
string, and the signed coefficients are read back by offsetting every limb
by half the base.

A few single values tau(n) come from tau_values, by Niebur's convolution
of the divisor sums (D. Niebur, Illinois J. Math. 19, 1975),

    tau(n) = n^4 sigma(n) - 24 sum_{i=1}^{n-1} (35i^4 - 52i^3 n + 18i^2 n^2) sigma(i) sigma(n-i),

which needs one sieve of sigma up to N = max n (O(N log N) small-integer
additions) and an O(n) sum per value, so a few values cost far less than
the table up to N.  Over a whole table the sums would cost O(N^2).
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


def _power(terms: Iterable[tuple[int, int]], n: int, w: int, squarings: int) -> list[int]:
    """Coefficients below degree n of (sum c q^e)^(2^squarings), exact when
    every input and output coefficient is below half = 5*10^(w-1) in size."""
    digits = n * w
    pos = ["0" * w] * n
    neg = ["0" * w] * n
    for e, c in terms:
        (pos if c > 0 else neg)[n - 1 - e] = str(abs(c)).zfill(w)
    # Exact arithmetic only: any rounding raises Inexact instead of passing.
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    x = ctx.subtract(decimal.Decimal("".join(pos)), decimal.Decimal("".join(neg)))
    del pos, neg  # n limb strings, not needed while squaring
    for _ in range(squarings):
        # mod 10^digits by slicing the digit string (Decimal % is slow)
        x = decimal.Decimal(str(ctx.multiply(x, x))[-digits:])
    # x = sum d_i 10^(i*w) mod 10^digits with |d_i| < half; adding half to
    # every limb makes each one a plain w-digit chunk d_i + half.
    half = 5 * 10 ** (w - 1)
    s = str(ctx.add(x, decimal.Decimal(str(half) * n)))[-digits:]
    return [int(s[a - w : a]) - half for a in range(digits, 0, -w)]


def delta_series(limit: int, *, ceiling: int = DEFAULT_LIMIT_CEILING) -> TauTable:
    """tau(1..limit) by squaring the packed cube series twice at limbs sized
    for cube^4, then cube^4 once more at limbs sized for its square.

    Refuses limits above `ceiling` instead of attempting an unbounded
    allocation; raise the ceiling explicitly for larger runs.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _refuse_over_ceiling(limit, ceiling)
    # Delta = q * cube^8, so tau(n) is the cube^8 coefficient at degree n-1.
    terms = _cube_terms(limit - 1)
    # Every cube^4 coefficient g_i below degree `limit` is at most W^4 in
    # size, W the sum of |c|; the cube's own |c| <= W are smaller still.
    g = _power(terms, limit, len(str(2 * sum(abs(c) for _, c in terms) ** 4)), 2)
    # Cauchy-Schwarz: |sum_{i+j=m} g_i g_j| <= sum g_i^2 for every m < limit,
    # and the same sum bounds every |g_i| <= g_i^2, so g packs at w too.
    w = len(str(2 * sum(c * c for c in g)))
    terms = enumerate(g)
    del g  # the exhausted iterator frees cube^4 before the last squaring
    return TauTable(tuple(_power(terms, limit, w, 1)))


def _divisor_sums(limit: int) -> list[int]:
    """[0, sigma(1), ..., sigma(limit)], sigma(m) the sum of the divisors of m."""
    sigma = [0] * (limit + 1)
    # Each divisor pair (d, m/d) with d <= sqrt(m) once: d^2 adds d, and
    # m = d*j with j > d adds d + j.
    for d in range(1, isqrt(limit) + 1):
        sigma[d * d] += d
        sigma[d * (d + 1) :: d] = map(add, sigma[d * (d + 1) :: d], range(2 * d + 1, d + limit // d + 1))
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
