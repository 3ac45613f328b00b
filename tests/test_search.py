"""Prime-value search over tau(p^{2k}) and the residue census."""

from math import prod

import pytest

from tauprimes.congruence import Class23Tag, allowed_residues_for_prime_value, excluded_b_set
from tauprimes.hecke import PrimeLocalData, tau_prime_power
from tauprimes.primality import is_probable_prime, primes_up_to
from tauprimes.search import (
    Verdict,
    _sieve_product,
    census_by_residue,
    index_divisor,
    search_prime_tau,
    smallest_prime_tau,
)

LEHMER_VALUE = -80561663527802406257321747


def test_small_grid_values(table2k):
    hits = search_prime_tau(3, 1, 10**7, table=table2k)
    by_key = {(h.p, h.k): h for h in hits}
    assert by_key[(2, 1)].value == -1472
    assert by_key[(2, 1)].verdict is Verdict.COMPOSITE
    assert by_key[(3, 1)].value == -113643
    assert by_key[(3, 1)].verdict is Verdict.COMPOSITE


def test_lehmer_hit(table2k):
    hits = search_prime_tau(300, 1, 10**27, table=table2k)
    lehmer = [h for h in hits if h.p == 251]
    assert len(lehmer) == 1
    hit = lehmer[0]
    assert hit.k == 1
    assert hit.value == LEHMER_VALUE
    assert hit.verdict is Verdict.PROBABLE_PRIME
    assert hit.residue23 == 1
    assert hit.class23.tag is Class23Tag.NON_RESIDUE  # 251 = 21 mod 23, a non-residue


def test_hits_ordered_and_capped(table2k):
    cap = 10**30
    hits = search_prime_tau(500, 4, cap, table=table2k)
    assert hits == sorted(hits, key=lambda h: (h.p, h.k))
    assert all(abs(h.value) <= cap for h in hits)
    # values are recomputed exactly, never trusted from the cap heuristics
    for h in hits[:40]:
        local = PrimeLocalData(h.p, table2k[h.p])
        assert tau_prime_power(local, 2 * h.k) == h.value


def test_grid_verdicts_consistent(table2k):
    hits = search_prime_tau(2000, 6, 10**40, table=table2k)
    assert len(hits) > 100
    allowed_cache = {}
    for h in hits:
        assert h.residue23 == h.value % 23
        if h.verdict is Verdict.PROBABLE_PRIME:
            assert h.value % 2 == 1 and abs(h.value) > 2
            if h.class23.tag is not Class23Tag.IS_TWENTY_THREE:
                allowed = allowed_cache.setdefault(h.k, set(allowed_residues_for_prime_value(h.k)))
                assert h.residue23 in allowed
        if h.p % 2 == 1:
            assert h.value % 2 == 1  # odd squares have odd tau


def test_index_sieve_verdicts_match_plain_test(table10k):
    # Values above 2^64 take the index sieve before Baillie-PSW; each verdict
    # must be the one is_probable_prime gives the value on its own.
    plain = {}
    for cap in (10**60, 10**120, 10**200):
        hits = search_prime_tau(2500, 24, cap, table=table10k)
        sieved = [h for h in hits if h.value % 2 and abs(h.value) > 2**64]
        assert any(not is_probable_prime(2 * h.k + 1) for h in sieved)  # composite indices
        assert any(h.p == 2411 for h in sieved)  # 2411 divides tau(2411)
        for h in hits:
            if h.value % 2:
                prime = plain.setdefault(h.value, is_probable_prime(h.value))
                assert (h.verdict is Verdict.PROBABLE_PRIME) == prime, (cap, h.p, h.k)


def test_index_divisor(table10k):
    local = PrimeLocalData(11, table10k[11])
    row = [tau_prime_power(local, 2 * k) for k in range(5)]
    assert index_divisor(row) == abs(row[1])  # 2k + 1 = 9: u_3 divides u_9
    # 2411 divides every tau(2411^m), m >= 1, and 2411 = 1 (mod 5).
    local = PrimeLocalData(2411, table10k[2411])
    row = [tau_prime_power(local, 2 * k) for k in range(3)]
    assert row[2] % 2411 == 0 and index_divisor(row) % 2411 == 0
    assert index_divisor([1, LEHMER_VALUE]) == 1  # a prime value has no proper divisor
    assert index_divisor([1, 1031]) == 1  # nor has a prime q = -1 (mod 3) of the sieve itself


def test_sieve_product():
    primes = primes_up_to(10**6)
    for n in (3, 13, 47):
        want = [q for q in primes if q > 1023 and q % n in (1, n - 1)][:800]
        assert _sieve_product(n) == prod(want), n


def test_table_too_small_rejected(table2k):
    with pytest.raises(ValueError):
        search_prime_tau(5000, 1, 10**9, table=table2k)
    with pytest.raises(ValueError):
        search_prime_tau(0, 1, 10, table=table2k)
    with pytest.raises(ValueError):
        search_prime_tau(10, 1, -1, table=table2k)


def test_smallest_prime_tau(table100k):
    assert smallest_prime_tau(63000, table=table100k) is None
    assert smallest_prime_tau(63001, table=table100k) == (63001, LEHMER_VALUE)
    assert smallest_prime_tau(100_000, table=table100k) == (63001, LEHMER_VALUE)
    with pytest.raises(ValueError):
        smallest_prime_tau(0, table=table100k)
    with pytest.raises(ValueError):
        smallest_prime_tau(200_000, table=table100k)


def test_census(table2k):
    hits = search_prime_tau(2000, 6, 10**40, table=table2k)
    census = census_by_residue(hits, 10**40)
    assert census.counts[1] >= 1  # the Lehmer hit lands in class 1
    assert census.total == sum(
        1 for h in hits if h.verdict is Verdict.PROBABLE_PRIME and abs(h.value) <= 10**40
    )
    assert set(census.counts) == set(range(23))
    assert all(h.k >= 3 for h in census.excluded_class_hits)
    assert all(h.residue23 in excluded_b_set() for h in census.excluded_class_hits)
    assert census.footnote_anomalies == ()
    assert "lower-bound sample" in census.note


def test_census_cap_filters(table2k):
    hits = search_prime_tau(300, 1, 10**27, table=table2k)
    tight = census_by_residue(hits, 10**20)
    assert tight.total == 0
    loose = census_by_residue(hits, 10**27)
    assert loose.counts[1] == 1
    with pytest.raises(ValueError):
        census_by_residue(hits, -1)


def test_search_includes_p2_even_values(table2k):
    hits = search_prime_tau(2, 3, 10**40, table=table2k)
    assert [h.k for h in hits] == [1, 2, 3]
    assert all(h.value % 2 == 0 for h in hits)
    assert all(h.verdict is Verdict.COMPOSITE for h in hits)


def test_overshoot_rows_terminate(table2k):
    # tiny cap: every row runs to k_max above the cap and keeps no point
    hits = search_prime_tau(100, 50, 10, table=table2k)
    assert hits == []
