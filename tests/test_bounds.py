"""Explicit bound formulas, cross-evaluated at high precision."""

import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext

from tauprimes.bounds import (
    CROSSOVER_M_MAX,
    DEFAULT_DPS,
    _bvdp,
    admissible_k_range,
    attainable_prime_ceiling,
    bound_report,
    bvdp_count_bound,
    decade_margin,
    density_fraction,
    pi_bracket,
    positivity_crossover,
    progression_decade_floor,
)
from tauprimes.errors import BudgetExceededError
from tauprimes.hecke import DEFAULT_MAX_K, PrimeLocalData
from tauprimes.spectral import (
    approximation_quality,
    closed_form_residual,
    cyclotomic_factor_magnitudes,
    min_gap,
    root_set,
)
from tauprimes.verify import _margin_sign


def test_k_range_exact_at_64():
    lo, hi = admissible_k_range(64)
    assert lo == 3
    with mpmath.workdps(60):
        assert abs(hi - 3) < mpmath.mpf(10) ** -55
    with pytest.raises(ValueError):
        admissible_k_range(1)


def test_k_range_against_log2():
    for n in (10**6, 10**12, 17**9):
        _, hi = admissible_k_range(n)
        with mpmath.workdps(80):
            alt = mpmath.log(n, 2) / 2
            assert abs(hi - alt) / alt < mpmath.mpf(10) ** -45


def test_bvdp_count_bound_values():
    with mpmath.workdps(80):
        for k in (3, 7, 50, 10**4):
            got = bvdp_count_bound(k)
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


# Every bit of bvdp_count_bound(k) at the default 50 digits, so a rewrite that
# rounds differently fails.  Writing the first term as 4 (log(k+1) + log log 4)
# gave the same bits at every k < 3000 at 5..129 digits (that term is below
# 2^-16 of the sum), so this pins only rewrites that move the last bit somewhere.
FROZEN_BITS = {
    3: "624804.57018671459321398745016799760936919230252724314",
    13: "3941236.9285992787150144948736588482886072714575538847",
    10**4: "61229737.22092643207993323284718469529029145173546889",
}


def test_bvdp_count_bound_frozen_bits():
    with mpmath.workdps(50):
        for k, bits in FROZEN_BITS.items():
            assert bvdp_count_bound(k) == mpmath.mpf(bits), k


def test_bvdp_growth_is_polylog():
    # the per-k cap grows like (log k)^3, glacially
    with mpmath.workdps(50):
        v3 = bvdp_count_bound(3)
        v_max = bvdp_count_bound(DEFAULT_MAX_K)
        assert v3 > 0 and v_max > v3
        assert v_max < 96000 * mpmath.log(DEFAULT_MAX_K) ** 2 * mpmath.log(200 * mpmath.log(DEFAULT_MAX_K)) + 200


def test_bvdp_past_the_ceiling():
    # Refused before the memo, so it holds at most DEFAULT_MAX_K values.
    _bvdp.cache_clear()
    with pytest.raises(BudgetExceededError, match=f"^k = {DEFAULT_MAX_K + 1} exceeds the ceiling {DEFAULT_MAX_K}$"):
        bvdp_count_bound(DEFAULT_MAX_K + 1)
    assert _bvdp.cache_info().misses == 0


def test_huge_n_converts_once_rounded():
    # An exact int -> mpf conversion of 10^1000000 alone takes about 7 s.
    n = 10**1000000
    start = time.perf_counter()
    _, k_hi = admissible_k_range(n)
    ceiling = attainable_prime_ceiling(n)
    assert time.perf_counter() - start < 2
    with mpmath.workdps(DEFAULT_DPS):
        assert abs(k_hi - 1000000 * mpmath.log(10) / mpmath.log(4)) < mpmath.mpf(10) ** -40
        assert ceiling > mpmath.power(10, 900000)


def test_attainable_ceiling():
    with mpmath.workdps(80):
        for n in (1, 2, 10**6):
            got = attainable_prime_ceiling(n)
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
        got = progression_decade_floor(7)
        alt = 7 * mpmath.mpf(10) ** 7 / (11 * mpmath.log(10) * 8)
        assert abs(got - alt) / alt < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        progression_decade_floor(0)


def test_progression_floor_decade_ratio():
    with mpmath.workdps(60):
        for m in range(1, 40):
            ratio = progression_decade_floor(m + 1) / progression_decade_floor(m)
            expected = mpmath.mpf(10 * (m + 1)) / (m + 2)
            assert abs(ratio - expected) < mpmath.mpf(10) ** -40


def test_pi_bracket_shape():
    lower, upper = pi_bracket(10**6)
    with mpmath.workdps(80):
        center = mpmath.mpf(10**6) / (11 * mpmath.log(10**6))
        assert abs(lower - mpmath.mpf(9) / 10 * center) / center < mpmath.mpf(10) ** -29
        assert abs(upper - mpmath.mpf(11) / 10 * center) / center < mpmath.mpf(10) ** -29
    with pytest.raises(ValueError):
        pi_bracket(1)


def test_density_fraction():
    assert density_fraction() == Fraction(18, 22) == Fraction(9, 11)


def test_decade_margin_and_crossover():
    for m in range(6, 13):
        assert decade_margin(m) < 0, m
    crossover = positivity_crossover()
    assert crossover is not None
    assert 12 < crossover < 160
    assert decade_margin(crossover) > 0
    assert decade_margin(crossover - 1) <= 0
    for m in range(crossover, crossover + 25):
        assert decade_margin(m) > 0


def test_margin_signs_proven_by_intervals():
    # verify's interval signs: at 50 digits every one is decided and matches
    # the point sign; too few bits leave intervals about 0 near the crossover.
    iv = MPIntervalContext()
    iv.dps = 50
    signs = [_margin_sign(iv, m) for m in range(1, CROSSOVER_M_MAX + 1)]
    assert signs == [-1] * 75 + [1] * (CROSSOVER_M_MAX - 75)
    assert all((sign > 0) == (decade_margin(m) > 0) for m, sign in enumerate(signs, start=1))
    iv.prec = 10
    assert [m for m in range(1, CROSSOVER_M_MAX + 1) if _margin_sign(iv, m) == 0] == [74, 75, 76, 77]


def test_bound_report_per_k_matches_bvdp_count_bound():
    # One memo: the report holds the very values bvdp_count_bound returns.
    for n in (10**8, 10**300, 10**1000):
        report = bound_report(n)
        window = range(report.k_lo, int(mpmath.ceil(report.k_hi)))
        assert list(report.per_k_bound) == list(window)
        for k in window:
            assert report.per_k_bound[k] is bvdp_count_bound(k), (n, k)


def test_bound_report_per_k_matches_mpf_expression():
    # The expression written out in mpf arithmetic as the reference, at
    # DEFAULT_DPS: the report and bvdp_count_bound must reproduce it bit for
    # bit whatever precision the caller holds.
    report = bound_report(10**1000)
    window = range(report.k_lo, int(mpmath.ceil(report.k_hi)))
    with mpmath.workdps(DEFAULT_DPS):
        log4 = mpmath.log(4)
        expected = {}
        for k in window:
            k_ = mpmath.mpf(k)
            log_k = mpmath.log(k_)
            expected[k] = 4 * mpmath.log((k_ + 1) * log4) + 96000 * log_k**2 * mpmath.log(200 * log_k)
    for k in window:
        assert report.per_k_bound[k] == expected[k], k
    for dps in (15, 30, DEFAULT_DPS):
        with mpmath.workdps(dps):
            for k in window:
                assert bvdp_count_bound(k) == expected[k], (dps, k)


def test_bound_report_window_ceiling():
    # The window ends at ceil(log_4 N) - 1, so 4^(DEFAULT_MAX_K + 1) is the largest N taken.
    _bvdp.cache_clear()
    with pytest.raises(BudgetExceededError, match=f"^k = {DEFAULT_MAX_K + 1} exceeds the ceiling {DEFAULT_MAX_K}$"):
        bound_report(4 ** (DEFAULT_MAX_K + 1) + 1)
    assert _bvdp.cache_info().misses == 0  # refused before any per-k bound
    assert max(bound_report(4**12 + 1).per_k_bound) == 12


def test_bound_report_window_is_exact_at_powers_of_4():
    # k is in the window iff 3 <= k and 4^k < N.  Rounding k_hi = log_4 N up
    # put k = j into the window at N = 4^j for 456 of j = 2..2999 (the first
    # is j = 7), and misread 4^j +- 1 once they pass 50 digits.
    for j in range(2, 101):
        for n in (4**j - 1, 4**j, 4**j + 1):
            want = [k for k in range(3, j + 1) if 4**k < n]
            assert list(bound_report(n).per_k_bound) == want, (j, n - 4**j)


def test_bound_report_window_unchanged_at_powers_of_10():
    # Away from the powers of 4 the exact end is the rounded one.
    for e in range(8, 1001):
        report = bound_report(10**e)
        assert list(report.per_k_bound) == list(range(3, int(mpmath.ceil(report.k_hi)))), e


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


def raw_per_k(ns):
    return [[tuple(map(int, v._mpf_)) for v in bound_report(n).per_k_bound.values()] for n in ns]


def test_per_k_memo_in_either_order():
    order = (10**8, 10**300, 10**1000)
    # Ascending from an empty memo: each report computes only the k past the last window.
    _bvdp.cache_clear()
    ascending = raw_per_k(order)
    assert _bvdp.cache_info().misses == len(ascending[-1])
    # Descending from an empty memo: one fill, then the smaller windows are read, not recomputed.
    _bvdp.cache_clear()
    descending = raw_per_k(order[::-1])[::-1]
    assert _bvdp.cache_info().misses == len(descending[-1])
    # Both equal the values computed afresh, outside the memo, at the precision its callers hold.
    with mpmath.workdps(DEFAULT_DPS):
        fresh = [tuple(map(int, _bvdp.__wrapped__(k)._mpf_)) for k in range(3, 3 + len(ascending[-1]))]
    for got in (ascending, descending):
        assert got == [fresh[: len(window)] for window in got]


def test_per_k_memo_grown_at_a_callers_precision():
    prec = mpmath.mp.prec
    _bvdp.cache_clear()
    with mpmath.workdps(15):
        first = bound_report(10**8)
        single = bvdp_count_bound(10**4)
        assert mpmath.mp.dps == 15
    later = bound_report(10**8)
    assert mpmath.mp.prec == prec
    with mpmath.workdps(50):
        for k in (3, 13):
            assert first.per_k_bound[k] == later.per_k_bound[k] == mpmath.mpf(FROZEN_BITS[k]), k
        assert single == bvdp_count_bound(10**4) == mpmath.mpf(FROZEN_BITS[10**4])


def test_per_k_memo_from_threads():
    prec = mpmath.mp.prec
    want = bound_report(10**1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            # Four threads, more than the cores, start from an empty memo.
            _bvdp.cache_clear()
            start, got = threading.Barrier(4), []

            def report():
                start.wait(timeout=60)
                got.append(bound_report(10**1000))

            threads = [threading.Thread(target=report) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            # mpmath's precision is process-wide: no thread may leave another's behind.
            assert got == [want] * 4 and mpmath.mp.prec == prec
    finally:
        sys.setswitchinterval(interval)


def test_precision_blocks_of_two_modules_from_threads():
    # A spectral block on one thread must not interleave with a bounds block
    # on another: each would restore the other's precision.
    local = PrimeLocalData(2, -24)

    def spectral_calls():
        return min_gap(300), root_set(40), closed_form_residual(local, 12)

    prec = mpmath.mp.prec
    want = {"spectral": spectral_calls(), "bounds": bound_report(10**1000)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            start, got = threading.Barrier(2), {}

            def run(name, call):
                start.wait(timeout=60)
                got[name] = [call() for _ in range(20)]

            threads = [
                threading.Thread(target=run, args=("spectral", spectral_calls)),
                threading.Thread(target=run, args=("bounds", lambda: bound_report(10**1000))),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == {name: [value] * 20 for name, value in want.items()}
            assert mpmath.mp.prec == prec
    finally:
        sys.setswitchinterval(interval)


def test_foreign_precision_churn():
    # Code outside the package that changes mpmath.mp's precision, here a
    # thread looping workdps(5), must change no value the package returns,
    # and restores mpmath.mp's precision undisturbed.
    local = PrimeLocalData(2, -24)

    def calls():
        return (
            bound_report(10**1000),
            min_gap(300),
            root_set(40),
            approximation_quality(local, 30),
            closed_form_residual(local, 12),
            cyclotomic_factor_magnitudes(local, 24),
        )

    prec = mpmath.mp.prec
    want = calls()
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            with mpmath.workdps(5):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=churn)
    thread.start()
    try:
        got = [calls() for _ in range(40)]
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert got == [want] * 40 and mpmath.mp.prec == prec
