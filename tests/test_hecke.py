"""Hecke arithmetic: local data, recurrence, closed form, factorization."""

from itertools import islice
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes import spectral
from tauprimes.congruence import _SEEDS
from tauprimes.errors import BudgetExceededError, DegenerateDiscriminantError, MissingPrimeError
from tauprimes.hecke import (
    DEFAULT_MAX_K,
    Factorization,
    PrimeLocalData,
    _term,
    factorize,
    hecke_terms,
    tau_of_n,
    tau_prime_power,
)
from tauprimes.primality import primes_up_to
from tauprimes.search import search_prime_tau
from tauprimes.series import DEFAULT_LIMIT_CEILING, delta_series, tau_values
from tauprimes.spectral import closed_form_residual, cyclotomic_factor_magnitudes
from tauprimes.verify import _two_term_powers

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


def test_exponent_ceiling():
    # One ceiling on k for every route to tau(p^k), refused before any term is computed.
    assert spectral.DEFAULT_MAX_K is DEFAULT_MAX_K
    local = PrimeLocalData(2, TAU2)
    message = f"^k = {DEFAULT_MAX_K + 1} exceeds the ceiling {DEFAULT_MAX_K}$"
    for call in (
        lambda: tau_prime_power(local, DEFAULT_MAX_K + 1),
        lambda: search_prime_tau(3, DEFAULT_MAX_K + 1, 1, table=delta_series(3)),
        lambda: spectral.growth_check(local, DEFAULT_MAX_K + 1),
        # |tau(p^{n-1})| is the product of the magnitudes, so n - 1 is the exponent.
        lambda: spectral.cyclotomic_factor_magnitudes(local, DEFAULT_MAX_K + 2),
    ):
        with pytest.raises(BudgetExceededError, match=message):
            call()
    tau_prime_power(local, DEFAULT_MAX_K)  # the ceiling itself is allowed


def test_tau_prime_powers_matches_single_calls():
    local = PrimeLocalData(2, TAU2)
    values = list(islice(hecke_terms(local.tau_p, local.x_p), 13))
    assert values == [tau_prime_power(local, k) for k in range(13)]


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**60), st.integers(0, 400))
def test_index_doubling_matches_the_recurrence(tau_p, x_p, k):
    assert _term(tau_p, x_p, k) == next(islice(hecke_terms(tau_p, x_p), k, None))


def test_index_doubling_on_real_pairs(table10k):
    # 2411 is the one prime below 10^4 other than 2, 3, 5, 7 with p | tau(p).
    for p in (2, 3, 5, 7, 2411):
        assert table10k[p] % p == 0
        terms = islice(hecke_terms(table10k[p], p**11), 401)
        assert [_term(table10k[p], p**11, k) for k in range(401)] == list(terms)


def test_index_doubling_mod_23():
    # The seeds of each class against the exact recurrence on those seeds,
    # reduced after the fact.  Past any exact reach, k counts only mod
    # 23 * 22 * 24: every element order of GL_2(F_23) divides it.
    for tau_p, x_p in _SEEDS.values():
        exact = list(islice(hecke_terms(tau_p, x_p), 300))
        assert [_term(tau_p, x_p, k, 23) for k in range(300)] == [u % 23 for u in exact]
        k = 10**30 + 7
        assert _term(tau_p, x_p, k, 23) == _term(tau_p, x_p, k % (23 * 22 * 24), 23)


def test_tau_prime_power_at_the_ceiling():
    # The largest k taken, against verify's own two-term step (about 0.05 s).
    want = _two_term_powers(2, TAU2, DEFAULT_MAX_K)[-1]
    assert tau_prime_power(PrimeLocalData(2, TAU2), DEFAULT_MAX_K) == want


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
    # Both public functions of the local roots accept tau(p)^2 < 4 p^11 and
    # refuse the rest.
    for call in (closed_form_residual, cyclotomic_factor_magnitudes):
        call(PrimeLocalData(2, TAU2), 2)
        call(PrimeLocalData(2, 90), 2)  # 8100 < 8192
        with pytest.raises(DegenerateDiscriminantError):
            call(PrimeLocalData(2, 91), 2)  # 91^2 = 8281 > 4*2^11 = 8192


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
    for n, cofactor in ((10**12 + 39,) * 2, (200_003**2,) * 2, (6 * 200_003 * 200_009, 200_003 * 200_009)):
        with pytest.raises(BudgetExceededError, match=rf"^n has the factor {cofactor}, .* p <= 200000$"):
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
