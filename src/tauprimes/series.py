"""Exact q-expansion of Delta(q) = q * prod_{n>=1} (1 - q^n)^24 = sum tau(n) q^n.

The cube of the Euler product collapses to a sparse signed series over
triangular numbers,

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
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
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
    if limit > ceiling:
        raise BudgetExceededError(
            f"series limit {limit} exceeds the ceiling of {ceiling} terms; the "
            f"tauprimes command caps series at {DEFAULT_LIMIT_CEILING} terms, and "
            "Python callers may pass delta_series(..., ceiling=) to allow more"
        )
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
