"""Hecke arithmetic: local data, recurrence, closed form, factorization."""

from itertools import islice
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.errors import BudgetExceededError, DegenerateDiscriminantError, MissingPrimeError
from tauprimes.hecke import (
    Factorization,
    PrimeLocalData,
    closed_form_residual,
    factorize,
    hecke_terms,
    local_angle,
    tau_of_n,
    tau_prime_power,
)
from tauprimes.primality import primes_up_to
from tauprimes.series import DEFAULT_LIMIT_CEILING, tau_values

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
    values = list(islice(hecke_terms(local.tau_p, local.x_p), 13))
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
    local_angle(PrimeLocalData(2, TAU2))
    local_angle(PrimeLocalData(2, 90))  # 8100 < 8192
    with pytest.raises(DegenerateDiscriminantError):
        local_angle(PrimeLocalData(2, 91))  # 91^2 = 8281 > 4*2^11 = 8192


def test_deligne_on_real_values(table10k):
    assert all(table10k[p] ** 2 < 4 * p**11 for p in primes_up_to(10_000))


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
    # Trial division stops at the tau ceiling, not at any size of n.
    assert DEFAULT_LIMIT_CEILING == 200_000
    assert factorize(10**40).factors == ((2, 40), (5, 40))
    assert factorize(199_999**2).factors == ((199_999, 2),)
    # 10^12 + 1 = 73 * 137 * 99990001 factors, but tau(99990001) is past the ceiling.
    assert factorize(10**12 + 1).factors == ((73, 1), (137, 1), (99_990_001, 1))
    with pytest.raises(BudgetExceededError, match=r"^tau\(99990001\) is past the ceiling: .* n <= 200000$"):
        tau_values([73, 137, 99_990_001])
    # A cofactor above 200000^2 with no factor up to 200000 is refused.
    for n in (10**12 + 39, 200_003**2, 6 * 200_003 * 200_009):
        with pytest.raises(BudgetExceededError, match=rf"^n = {n} has the factor \d+, .* p <= 200000$"):
            factorize(n)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        factorize(0)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2), (3, 2)))  # wrong product


SMALL_PRIMES = primes_up_to(3000)
# Primes on either side of the ceiling 200000.
NEAR_CEILING = [p for p in primes_up_to(201_000) if p > 199_000]


@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**9),
        st.builds(
            lambda smooth, big: prod(smooth) * prod(big),
            st.lists(st.sampled_from(SMALL_PRIMES), max_size=40),
            st.lists(st.sampled_from(NEAR_CEILING), max_size=2),
        ),
    )
)
@settings(max_examples=150)
def test_factorize_against_sympy(n):
    want = sympy.factorint(n)
    if prod(p**e for p, e in want.items() if p > DEFAULT_LIMIT_CEILING) > DEFAULT_LIMIT_CEILING**2:
        with pytest.raises(BudgetExceededError):
            factorize(n)
        return
    got = factorize(n)
    assert dict(got.factors) == want
    assert prod(p**e for p, e in got.factors) == n
