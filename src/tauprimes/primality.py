"""Compositeness testing for tau values.

is_probable_prime decides |n|:

 1. below 1024 by table lookup; above, one gcd with the product of the
    primes below 1024 (has_small_factor), conclusive for |n| < 1024^2;
 2. for |n| < 2^64, strong tests to the fixed 12-prime base set, which is
    known to be deterministic in that range;
 3. otherwise a Baillie-PSW-style combination: strong base-2 test, perfect
    square rejection, then a strong Lucas test with Selfridge's parameter
    choice (first D in 5, -7, 9, -11, ... with Jacobi(D, n) = -1, P = 1,
    Q = (1 - D)/4).

passes_strong_tests is steps 2 and 3 alone, for callers that screen with
has_small_factor and a sieve of their own first.  No randomness anywhere,
so verdicts are reproducible run to run.
"""

from __future__ import annotations

from math import gcd, isqrt, prod


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = frozenset(primes_up_to(1023))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_SMALL_LIMIT_SQ = 1024 * 1024
_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n >= 3, base not divisible by n.
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # n odd, >= 3, not a perfect square, no small prime factors.
    d_param = 5
    while True:
        j = _jacobi(d_param, n)
        if j == 0:
            return n == abs(d_param)
        if j == -1:
            break
        d_param = -(d_param + 2) if d_param > 0 else -(d_param - 2)
    q = (1 - d_param) // 4

    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d_odd = (n + 1) >> s

    # Binary ladder for U_m, V_m, Q^m with P = 1.
    u, v, qk = 1, 1, q % n
    for bit in bin(d_odd)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            # index m -> m+1: U' = (U + V)/2, V' = (D U + V)/2 (halving mod odd n)
            u2 = u + v
            if u2 % 2:
                u2 += n
            v2 = d_param * u + v
            if v2 % 2:
                v2 += n
            u, v = (u2 // 2) % n, (v2 // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """True when |n| is prime (or an unrecorded Baillie-PSW pseudoprime)."""
    n = abs(n)
    if n < 1024:
        return n in _SMALL_PRIMES
    return not has_small_factor(n) and passes_strong_tests(n)


def has_small_factor(n: int) -> bool:
    """True when n has a prime factor below 1024."""
    return gcd(n, _SMALL_PRODUCT) != 1


def passes_strong_tests(n: int) -> bool:
    """is_probable_prime(n) for n >= 1024 with no prime factor below 1024."""
    if n < _SMALL_LIMIT_SQ:
        return True
    if n < 2**64:
        return all(_strong_probable_prime(n, b) for b in _BASES_64)
    return _strong_probable_prime(n, 2) and isqrt(n) ** 2 != n and _strong_lucas(n)
