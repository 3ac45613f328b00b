"""Explicit bound formulas, cross-evaluated at high precision."""

from fractions import Fraction

import mpmath
import pytest

from tauprimes.bounds import (
    admissible_k_range,
    attainable_prime_ceiling,
    bound_report,
    bvdp_count_bound,
    decade_margin,
    density_fraction,
    dirichlet_partial_sum,
    pi_bracket,
    positivity_crossover,
    progression_decade_floor,
)


def test_k_range_exact_at_64():
    lo, hi = admissible_k_range(64, 60)
    assert lo == 3
    with mpmath.workdps(60):
        assert abs(hi - 3) < mpmath.mpf(10) ** -55
    with pytest.raises(ValueError):
        admissible_k_range(1)


def test_k_range_against_log2():
    for n in (10**6, 10**12, 17**9):
        _, hi = admissible_k_range(n, 60)
        with mpmath.workdps(80):
            alt = mpmath.log(n, 2) / 2
            assert abs(hi - alt) / alt < mpmath.mpf(10) ** -55


def test_bvdp_count_bound_values():
    with mpmath.workdps(80):
        for k in (3, 7, 50, 10**4):
            got = bvdp_count_bound(k, 60)
            k_ = mpmath.mpf(k)
            alt = mpmath.fsum(
                [
                    4 * mpmath.log(k_ + 1),
                    4 * mpmath.log(mpmath.log(4)),
                    96000 * mpmath.log(k_) ** 2 * mpmath.log(200) ,
                    96000 * mpmath.log(k_) ** 2 * mpmath.log(mpmath.log(k_)),
                ]
            )
            assert abs(got - alt) / alt < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        bvdp_count_bound(2)


def test_bvdp_count_bound_frozen_bits():
    # Every bit at the default 50 digits, so a rewrite that rounds differently
    # fails.  Writing the first term as 4 (log(k+1) + log log 4) gave the same
    # bits at every k < 3000 at 5..129 digits (that term is below 2^-16 of the
    # sum), so this pins only rewrites that move the last bit somewhere.
    frozen = {
        3: "624804.57018671459321398745016799760936919230252724314",
        13: "3941236.9285992787150144948736588482886072714575538847",
        10**4: "61229737.22092643207993323284718469529029145173546889",
    }
    with mpmath.workdps(50):
        for k, bits in frozen.items():
            assert bvdp_count_bound(k) == mpmath.mpf(bits), k


def test_bvdp_growth_is_polylog():
    # the per-k cap grows like (log k)^3, glacially
    with mpmath.workdps(50):
        v3 = bvdp_count_bound(3)
        v1e6 = bvdp_count_bound(10**6)
        assert v3 > 0 and v1e6 > v3
        assert v1e6 < 96000 * mpmath.log(10**6) ** 2 * mpmath.log(200 * mpmath.log(10**6)) + 200


def test_attainable_ceiling():
    with mpmath.workdps(80):
        for n in (1, 2, 10**6):
            got = attainable_prime_ceiling(n, 60)
            n_ = mpmath.mpf(n)
            alt = mpmath.exp(mpmath.mpf(9) / 10 * mpmath.log(n_)) * mpmath.log(n_) / mpmath.log(4) if n > 1 else 0
            if n == 1:
                assert got == 0
            else:
                assert abs(got - alt) / alt < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        attainable_prime_ceiling(0)


def test_progression_floor():
    with mpmath.workdps(80):
        got = progression_decade_floor(7, 60)
        alt = 7 * mpmath.mpf(10) ** 7 / (11 * mpmath.log(10) * 8)
        assert abs(got - alt) / alt < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        progression_decade_floor(0)


def test_progression_floor_decade_ratio():
    with mpmath.workdps(60):
        for m in range(1, 40):
            ratio = progression_decade_floor(m + 1, 60) / progression_decade_floor(m, 60)
            expected = mpmath.mpf(10 * (m + 1)) / (m + 2)
            assert abs(ratio - expected) < mpmath.mpf(10) ** -50


def test_pi_bracket_shape():
    lower, upper = pi_bracket(10**6, 60)
    with mpmath.workdps(80):
        center = mpmath.mpf(10**6) / (11 * mpmath.log(10**6))
        assert abs(lower - mpmath.mpf(9) / 10 * center) / center < mpmath.mpf(10) ** -29
        assert abs(upper - mpmath.mpf(11) / 10 * center) / center < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        pi_bracket(1)


def test_density_fraction():
    assert density_fraction() == Fraction(18, 22) == Fraction(9, 11)


def test_dirichlet_partial_sum():
    ds = dirichlet_partial_sum([3, -3], 2, 50)
    with mpmath.workdps(50):
        assert abs(ds.partial_sum - mpmath.mpf(2) / 9) < mpmath.mpf(10) ** -45
        assert ds.normalizer == 0
        assert ds.ratio == mpmath.inf
    near1 = dirichlet_partial_sum([3, -3, 5], mpmath.mpf("1.01"), 50)
    assert near1.normalizer > 0 and near1.ratio > 0
    with pytest.raises(ValueError):
        dirichlet_partial_sum([3], 1)
    with pytest.raises(ValueError):
        dirichlet_partial_sum([1], 2)


def test_decade_margin_and_crossover():
    for m in range(6, 13):
        assert decade_margin(m) < 0, m
    crossover = positivity_crossover(160)
    assert crossover is not None
    assert 12 < crossover < 160
    assert decade_margin(crossover) > 0
    assert decade_margin(crossover - 1) <= 0
    for m in range(crossover, crossover + 25):
        assert decade_margin(m) > 0


def test_bound_report_per_k_matches_bvdp_count_bound():
    for n in (10**8, 10**300):
        for dps in (30, 50):
            report = bound_report(n, dps)
            window = range(report.k_lo, int(mpmath.ceil(report.k_hi)))
            assert list(report.per_k_bound) == list(window)
            for k in window:
                assert report.per_k_bound[k] == bvdp_count_bound(k, dps), (n, dps, k)


def test_bound_report_fields():
    report = bound_report(10**8)
    assert report.k_lo == 3
    assert sorted(report.per_k_bound) == list(range(3, 14))  # k_hi = log(1e8)/(2 log 2) = 13.28..
    assert report.density == Fraction(9, 11)
    assert len(report.caveats) == 3
    with mpmath.workdps(30):
        assert abs(report.sqrt_sample_ceiling - 10**4) < mpmath.mpf(10) ** -20
        expected_census = 10**4 + mpmath.power(10**8, mpmath.mpf(3) / 11)
        assert abs(report.census_sample_ceiling - expected_census) < mpmath.mpf("1e-10")
    assert report.bracket[0] < report.bracket[1]
