"""Hecke arithmetic: local data, recurrence, closed form, factorization."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.errors import BudgetExceededError, DegenerateDiscriminantError, MissingPrimeError
from tauprimes.hecke import (
    Factorization,
    PrimeLocalData,
    closed_form_residual,
    deligne_check,
    factorize,
    tau_of_n,
    tau_prime_power,
    tau_prime_powers,
)
from tauprimes.primality import primes_up_to

TAU2 = -24
TAU3 = 252


def test_local_data_derived_fields():
    local = PrimeLocalData(3, TAU3)
    assert local.x_p == 3**11 == 177147
    assert local.y_p == TAU3**2 == 63504
    with pytest.raises(ValueError):
        PrimeLocalData(1, 0)


def test_tau_prime_power_base_cases():
    local = PrimeLocalData(3, TAU3)
    assert tau_prime_power(local, 0) == 1
    assert tau_prime_power(local, 1) == TAU3
    assert tau_prime_power(local, 2) == TAU3**2 - 3**11 == -113643
    with pytest.raises(ValueError):
        tau_prime_power(local, -1)


def test_tau_prime_powers_matches_single_calls():
    local = PrimeLocalData(2, TAU2)
    values = tau_prime_powers(local, 12)
    assert values == [tau_prime_power(local, k) for k in range(13)]


def test_recurrence_against_table(table10k):
    for p in primes_up_to(100):
        local = PrimeLocalData(p, table10k[p])
        m = 2
        while p**m <= 10_000:
            assert tau_prime_power(local, m) == table10k[p**m]
            m += 1


def test_tau_of_n_multiplicative(table10k):
    taus = {p: table10k[p] for p in primes_up_to(100)}
    for n in (6, 12, 60, 63, 100, 9800):
        assert tau_of_n(factorize(n), taus) == table10k[n]
    assert tau_of_n(factorize(1), {}) == 1


def test_tau_of_n_missing_prime():
    with pytest.raises(MissingPrimeError) as exc:
        tau_of_n(factorize(10), {2: TAU2})
    assert exc.value.prime == 5


def test_deligne_check():
    assert deligne_check(PrimeLocalData(2, TAU2)) is True
    assert deligne_check(PrimeLocalData(2, 91)) is False  # 91^2 = 8281 > 4*2^11 = 8192
    assert deligne_check(PrimeLocalData(2, 90)) is True  # 8100 <= 8192


def test_deligne_on_real_values(table10k):
    assert all(deligne_check(PrimeLocalData(p, table10k[p])) for p in primes_up_to(10_000))


def test_closed_form_residual_small(table10k):
    for p in (2, 3, 5, 7):
        local = PrimeLocalData(p, table10k[p])
        for k in (1, 2, 5, 12):
            assert closed_form_residual(local, k) < 1e-30


def test_closed_form_degenerate():
    with pytest.raises(DegenerateDiscriminantError):
        closed_form_residual(PrimeLocalData(2, 91), 2)
    with pytest.raises(ValueError):
        closed_form_residual(PrimeLocalData(2, TAU2), 0)


def test_factorize_known():
    assert factorize(6048).factors == ((2, 5), (3, 3), (7, 1))
    assert factorize(1).factors == ()
    assert factorize(63001).factors == ((251, 2),)
    assert factorize(2**39).factors == ((2, 39),)


def test_factorize_budget():
    with pytest.raises(BudgetExceededError):
        factorize(10**12 + 1)
    assert factorize(10**12).factors == ((2, 12), (5, 12))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2), (3, 2)))  # wrong product


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=150)
def test_factorize_against_sympy(n):
    got = factorize(n)
    assert dict(got.factors) == sympy.factorint(n)
    prod = 1
    for p, e in got.factors:
        prod *= p**e
    assert prod == n
