"""Compositeness testing against an independent oracle and curated hard cases."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.primality import (
    _jacobi,
    _strong_lucas,
    _strong_probable_prime,
    is_probable_prime,
    primes_up_to,
)

LEHMER_PRIME = 80561663527802406257321747

# Strong pseudoprimes to base 2 (all composite).
SPSP2 = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281]

# Strong Lucas pseudoprimes with Selfridge parameters (all composite).
SLPSP = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077]

CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**6)) == 78498


def test_small_values():
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)
    assert not is_probable_prime(-1)
    assert is_probable_prime(2)
    assert is_probable_prime(-2)
    assert is_probable_prime(3)
    assert not is_probable_prime(-6048)


def test_lehmer_value_is_prime():
    assert is_probable_prime(LEHMER_PRIME)
    assert is_probable_prime(-LEHMER_PRIME)


def test_curated_composites():
    for n in SPSP2 + SLPSP + CARMICHAELS:
        assert not is_probable_prime(n), n
        assert not sympy.isprime(n), n


def test_strong_lucas_catches_mersenne_composite():
    # 2^67 - 1 is composite but a strong base-2 pseudoprime, and it exceeds
    # 2^64, so it exercises the Lucas leg of the BPSW path.
    m67 = 2**67 - 1
    assert m67 == 193707721 * 761838257287
    assert _strong_probable_prime(m67, 2)
    assert not _strong_lucas(m67)
    assert not is_probable_prime(m67)


def test_large_known_primes():
    assert is_probable_prime(2**127 - 1)
    assert is_probable_prime(2**89 - 1)
    assert not is_probable_prime(2**101 - 1)
    assert not is_probable_prime((2**89 - 1) * (2**107 - 1))


def test_perfect_squares_rejected():
    for root in (10**10 + 19, 10**11 + 3):
        assert not is_probable_prime(root * root)


def test_against_sieve():
    prime_set = set(primes_up_to(50_000))
    for n in range(50_000):
        assert is_probable_prime(n) == (n in prime_set), n


@given(st.integers(min_value=2, max_value=10**7))
@settings(max_examples=300)
def test_against_sympy_random(n):
    assert is_probable_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=2**64, max_value=2**64 + 10**6))
@settings(max_examples=60)
def test_against_sympy_above_word_size(n):
    assert is_probable_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=3, max_value=10**6).filter(lambda n: n % 2 == 1), st.integers(-100, 100))
@settings(max_examples=200)
def test_jacobi_against_sympy(n, a):
    assert _jacobi(a, n) == sympy.jacobi_symbol(a, n)
