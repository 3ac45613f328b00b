"""Mod-23 classification and residue laws."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes.congruence import (
    Class23,
    Class23Tag,
    allowed_residues_for_prime_value,
    classify_mod23,
    excluded_b_set,
    legendre,
    parity_law,
    tau_mod23,
)
from tauprimes.primality import primes_up_to


def test_legendre_examples():
    assert legendre(2, 23) == 1
    assert legendre(5, 23) == -1
    assert legendre(23, 23) == 0
    assert legendre(46, 23) == 0
    with pytest.raises(ValueError):
        legendre(3, 4)


@given(st.integers(min_value=-500, max_value=500), st.sampled_from([3, 7, 23, 101, 997]))
@settings(max_examples=300)
def test_legendre_against_sympy(a, q):
    assert legendre(a, q) == sympy.jacobi_symbol(a, q)


def test_classify_examples():
    assert classify_mod23(23).tag is Class23Tag.IS_TWENTY_THREE
    assert classify_mod23(5) == Class23(Class23Tag.NON_RESIDUE)
    assert classify_mod23(59) == Class23(Class23Tag.PRINCIPAL_FORM, (6, 1))
    assert classify_mod23(2) == Class23(Class23Tag.SPLIT_NON_PRINCIPAL)
    with pytest.raises(ValueError):
        classify_mod23(1)


def test_classify_partition_and_witnesses():
    seen = {tag: 0 for tag in Class23Tag}
    for p in primes_up_to(5000):
        cls = classify_mod23(p)
        seen[cls.tag] += 1
        if cls.tag is Class23Tag.PRINCIPAL_FORM:
            a, b = cls.witness
            assert a >= 1 and b >= 1 and a * a + 23 * b * b == p
        else:
            assert cls.witness is None
        if cls.tag is Class23Tag.NON_RESIDUE:
            assert legendre(p, 23) == -1
        elif cls.tag is not Class23Tag.IS_TWENTY_THREE:
            assert legendre(p, 23) == 1
    assert seen[Class23Tag.IS_TWENTY_THREE] == 1
    assert all(seen[t] > 0 for t in Class23Tag)


def test_class_witness_shape_enforced():
    with pytest.raises(ValueError):
        Class23(Class23Tag.NON_RESIDUE, (1, 2))
    with pytest.raises(ValueError):
        Class23(Class23Tag.PRINCIPAL_FORM, None)


def test_tau_mod23_frozen_example():
    # split class, k = 5: the period-3 pattern 1,22,0 puts index 5 at 0
    assert tau_mod23(Class23(Class23Tag.SPLIT_NON_PRINCIPAL), 5) == 0


def test_tau_mod23_rejects_23_and_negative_k():
    with pytest.raises(ValueError):
        tau_mod23(Class23(Class23Tag.IS_TWENTY_THREE), 2)
    with pytest.raises(ValueError):
        tau_mod23(Class23(Class23Tag.NON_RESIDUE), -1)


def test_allowed_residues():
    assert set(allowed_residues_for_prime_value(1)) == {0, 1, 3, 22}
    assert set(allowed_residues_for_prime_value(2)) == {0, 1, 5, 22}
    assert set(allowed_residues_for_prime_value(11)) == {0, 1, 22}
    with pytest.raises(ValueError):
        allowed_residues_for_prime_value(0)


def test_allowed_residues_meet_excluded_only_in_drift_term():
    excl = excluded_b_set()
    for k in range(1, 1001):
        overlap = excl & allowed_residues_for_prime_value(k)
        assert overlap <= {(2 * k + 1) % 23}


def test_excluded_set_contents():
    excl = excluded_b_set()
    assert len(excl) == 18
    assert excl == set(range(23)) - {0, 1, 3, 5, 22}
    # each excluded class first becomes reachable at k >= 3
    for b in excl:
        k_min = min(k for k in range(1, 24) if (2 * k + 1) % 23 == b)
        assert k_min >= 3, (b, k_min)


def test_parity_law_cases():
    assert parity_law(1, 1)
    assert parity_law(2, -24)
    assert parity_law(9, -113643)
    assert not parity_law(9, -113644)
    assert not parity_law(2, 25)
    assert parity_law(4, -1472)  # even square: tau even
