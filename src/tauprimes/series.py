"""Exact q-expansion of Delta(q) = q * prod_{n>=1} (1 - q^n)^24 = sum tau(n) q^n.

The cube of the Euler product collapses to a sparse signed series over
triangular numbers,

    prod_{n>=1} (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2},

so the 24th power is the 8th power of that sparse series and tau(1..N)
falls out of eight dense-by-sparse truncated multiplications.  The sparse
side has about sqrt(2N) terms, giving O(N * sqrt(N)) integer operations
instead of the O(N^2) of repeated dense multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExceededError

# Refuse series longer than this unless the caller raises the ceiling;
# 2*10^5 keeps worst-case memory and time at desk scale.
DEFAULT_LIMIT_CEILING = 200_000

# Below this truncation degree the schoolbook loop beats the packing overhead.
_PACKED_CUTOVER = 512


@dataclass(frozen=True)
class SparseCubeSeries:
    """Truncation of prod (1-q^n)^3; terms are (exponent, coefficient) pairs.

    Exponents are exactly the triangular numbers m(m+1)/2 <= limit and the
    coefficient at m(m+1)/2 is (-1)^m (2m+1).
    """

    limit: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if not self.terms or self.terms[0] != (0, 1):
            raise ValueError("series must start with the constant term (0, 1)")


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


def jacobi_cube(limit: int) -> SparseCubeSeries:
    """Sparse truncation of prod (1-q^n)^3 through degree `limit` (>= 1)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return SparseCubeSeries(limit, _cube_terms(limit))


def _convolve_schoolbook(dense: Sequence[int], terms, limit: int) -> list[int]:
    out = [0] * (limit + 1)
    m = min(len(dense), limit + 1)
    for e, c in terms:
        span = min(m, limit + 1 - e)
        for i in range(span):
            out[i + e] += c * dense[i]
    return out


def _convolve_packed(dense: Sequence[int], terms, limit: int) -> list[int]:
    # Kronecker substitution: pack both factors into single big integers with
    # byte-aligned limbs wide enough that convolution limbs never carry, do
    # the whole truncated product as 4 big-int multiplications, and unpack.
    # Positive and negative parts are packed separately so limbs stay
    # non-negative; the final per-limb subtraction restores signs exactly.
    n = limit + 1
    maxabs = max(map(abs, dense), default=0)
    weight = sum(abs(c) for _, c in terms)
    limb_bits = maxabs.bit_length() + weight.bit_length() + 2
    w = (limb_bits + 7) // 8
    bits = 8 * w

    pos = bytearray(n * w)
    neg = bytearray(n * w)
    for i, c in enumerate(dense[:n]):
        if c > 0:
            pos[i * w : (i + 1) * w] = c.to_bytes(w, "little")
        elif c < 0:
            neg[i * w : (i + 1) * w] = (-c).to_bytes(w, "little")
    dense_pos = int.from_bytes(pos, "little")
    dense_neg = int.from_bytes(neg, "little")

    sparse_pos = 0
    sparse_neg = 0
    for e, c in terms:
        if c > 0:
            sparse_pos += c << (e * bits)
        else:
            sparse_neg += (-c) << (e * bits)

    mask = (1 << (n * bits)) - 1
    plus = (dense_pos * sparse_pos + dense_neg * sparse_neg) & mask
    minus = (dense_pos * sparse_neg + dense_neg * sparse_pos) & mask
    plus_b = plus.to_bytes(n * w, "little")
    minus_b = minus.to_bytes(n * w, "little")

    out = [0] * n
    fb = int.from_bytes
    for i in range(n):
        a = i * w
        b = a + w
        out[i] = fb(plus_b[a:b], "little") - fb(minus_b[a:b], "little")
    return out


def _convolve(dense: Sequence[int], terms, limit: int) -> list[int]:
    # terms must already be cut to exponents <= limit.
    if limit >= _PACKED_CUTOVER:
        return _convolve_packed(dense, terms, limit)
    return _convolve_schoolbook(dense, terms, limit)


def multiply_by_sparse(dense: Sequence[int], sparse: SparseCubeSeries, limit: int) -> list[int]:
    """Truncated product of a dense coefficient list with a sparse series.

    `dense` is indexed from degree 0; the result holds degrees 0..limit.
    Exact integer arithmetic throughout.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return _convolve(dense, [(e, c) for e, c in sparse.terms if e <= limit], limit)


def delta_series(limit: int, *, ceiling: int = DEFAULT_LIMIT_CEILING) -> TauTable:
    """tau(1..limit) via eight sparse multiplications of the cube series.

    Refuses limits above `ceiling` instead of attempting an unbounded
    allocation; raise the ceiling explicitly for larger runs.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > ceiling:
        raise BudgetExceededError(
            f"series limit {limit} exceeds the ceiling {ceiling}; "
            "pass a larger ceiling= explicitly to allow this"
        )
    degree = limit - 1
    terms = _cube_terms(degree)
    dense: Sequence[int] = [1]
    for _ in range(8):
        dense = _convolve(dense, terms, degree)
    # Delta = q * cube^8, so tau(n) is the cube^8 coefficient at degree n-1.
    return TauTable(tuple(dense))
