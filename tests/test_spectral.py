"""Even-index polynomials, their roots, and the local spectral identities."""

from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauprimes import spectral
from tauprimes.errors import BudgetExceededError, DegenerateDiscriminantError
from tauprimes.hecke import PrimeLocalData
from tauprimes.spectral import (
    DEFAULT_MAX_K,
    EvenIndexPoly,
    _alpha,
    approximation_quality,
    cyclotomic_factor_magnitudes,
    eval_dehomogenized,
    eval_even_poly,
    even_index_poly,
    growth_check,
    min_gap,
    root_set,
)


def sympy_even_poly(k):
    """Independent oracle: coefficient of t^{2k} in 1/(1 - s t + x t^2), s^2 -> y."""
    s, x, y, t = sympy.symbols("s x y t")
    ser = sympy.series(1 / (1 - s * t + x * t**2), t, 0, 2 * k + 1).removeO()
    coeff = sympy.expand(ser.coeff(t, 2 * k))
    return sympy.expand(coeff.subs(s, sympy.sqrt(y)))


def test_poly_base_cases():
    assert even_index_poly(0).coeffs == (1,)
    assert even_index_poly(1).coeffs == (1, -1)
    assert even_index_poly(2).coeffs == (1, -3, 1)


def test_poly_against_symbolic_series():
    x, y = sympy.symbols("x y")
    for k in range(7):
        poly = even_index_poly(k)
        mine = sum(c * x**i * y ** (k - i) for i, c in enumerate(poly.coeffs))
        assert sympy.expand(mine - sympy_even_poly(k)) == 0, k


def test_poly_recurrence_independent_of_construction():
    # G_k = (y - 2x) G_{k-1} - x^2 G_{k-2} checked on raw integer points
    for k in range(2, 12):
        gk, g1, g0 = even_index_poly(k), even_index_poly(k - 1), even_index_poly(k - 2)
        for x, y in ((1, 1), (2, 7), (-3, 5), (10, -4)):
            assert eval_even_poly(gk, x, y) == (y - 2 * x) * eval_even_poly(g1, x, y) - x * x * eval_even_poly(g0, x, y)


def test_poly_is_monic_and_homogeneous():
    for k in (3, 8, 20):
        poly = even_index_poly(k)
        assert poly.coeffs[0] == 1
        lam = 3
        assert eval_even_poly(poly, lam * 2, lam * 5) == lam**k * eval_even_poly(poly, 2, 5)


def test_poly_budget_and_validation():
    with pytest.raises(ValueError):
        even_index_poly(-1)
    with pytest.raises(BudgetExceededError):
        even_index_poly(DEFAULT_MAX_K + 1)
    with pytest.raises(ValueError):
        EvenIndexPoly(2, (2, 0, 1))


@given(st.integers(min_value=0, max_value=15), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=120)
def test_eval_routes_agree(k, x, y):
    poly = even_index_poly(k)
    assert eval_even_poly(poly, 1, y) == eval_dehomogenized(poly, y)
    assert eval_even_poly(poly, x, y) == sum(
        c * x**i * y ** (k - i) for i, c in enumerate(poly.coeffs)
    )


def test_root_set_k2_closed_form():
    rs = root_set(2, 50)
    with mpmath.workdps(50):
        expected_hi = (3 + mpmath.sqrt(5)) / 2
        expected_lo = (3 - mpmath.sqrt(5)) / 2
        assert abs(rs.alphas[0] - expected_hi) < mpmath.mpf(10) ** -45
        assert abs(rs.alphas[1] - expected_lo) < mpmath.mpf(10) ** -45


def test_root_set_matches_polyroots():
    # trig roots vs numeric roots of the dehomogenized integer polynomial
    for k in (3, 5, 8):
        poly = even_index_poly(k)
        rs = root_set(k, 60)
        with mpmath.workdps(60):
            # coeffs are already highest-power-of-y first once x = 1
            numeric = mpmath.polyroots([mpmath.mpf(c) for c in poly.coeffs], maxsteps=200)
            numeric = sorted((mpmath.re(r) for r in numeric), reverse=True)
            for a, b in zip(rs.alphas, numeric):
                assert abs(a - b) < mpmath.mpf(10) ** -50


def test_root_set_shape_and_range():
    rs = root_set(40)
    assert rs.precision_digits == 160
    assert len(rs.alphas) == 40
    assert all(0 < a < 4 for a in rs.alphas)
    assert all(rs.alphas[i] > rs.alphas[i + 1] for i in range(39))
    with pytest.raises(ValueError):
        root_set(0)
    with pytest.raises(ValueError):
        root_set(3, 10)


def count_fallbacks(monkeypatch):
    """Route root_set's _alpha calls through a counter; returns the call list."""
    calls = []

    def counted(j, k):
        calls.append((j, k))
        return _alpha(j, k)

    monkeypatch.setattr(spectral, "_alpha", counted)
    return calls


def assert_roots_are_alpha(k, digits):
    rs = root_set(k, digits)
    with mpmath.workdps(rs.precision_digits):
        for j, a in enumerate(rs.alphas, start=1):
            assert a._mpf_ == _alpha(j, k)._mpf_, (k, digits, j)


def test_root_set_is_bit_identical_to_alpha(monkeypatch):
    # The recurrence route and the per-root cosine give the same bits.
    calls = count_fallbacks(monkeypatch)
    cases = [(k, d) for k in range(1, 61) for d in (None, 20, 60, 200)] + [(150, None), (300, None)]
    for k, d in cases:
        assert_roots_are_alpha(k, d)
    # Both branches ran: most roots from the recurrence, some near a midpoint.
    assert 0 < len(calls) < sum(k for k, _ in cases) // 10


def test_root_set_fallback_branch(monkeypatch):
    # A margin of a whole ulp sends every root through _alpha.
    calls = count_fallbacks(monkeypatch)
    monkeypatch.setattr(spectral, "_MIDPOINT_MARGIN_BITS", 0)
    for k, d in ((1, None), (7, 20), (33, 200), (80, None)):
        del calls[:]
        assert_roots_are_alpha(k, d)
        assert calls == [(j, k) for j in range(1, k + 1)]


def test_root_set_budget():
    # Refused before any work, in even_index_poly's words.
    for build in (root_set, even_index_poly):
        with pytest.raises(BudgetExceededError, match=f"^k = {DEFAULT_MAX_K + 1} exceeds the ceiling {DEFAULT_MAX_K}$"):
            build(DEFAULT_MAX_K + 1)


def test_vieta_sum_of_roots():
    for k in (2, 5, 9):
        poly = even_index_poly(k)
        rs = root_set(k, 60)
        with mpmath.workdps(60):
            assert abs(mpmath.fsum(rs.alphas) + poly.coeffs[1]) < mpmath.mpf(10) ** -50


def test_min_gap_k2_is_sqrt5():
    gap = min_gap(2, 50)
    with mpmath.workdps(50):
        assert abs(gap - mpmath.sqrt(5)) < mpmath.mpf(10) ** -45


def test_min_gap_is_least_root_gap():
    # The closed form against the root set it summarizes, at the default precision.
    for k in range(2, 201):
        rs = root_set(k)
        d = rs.precision_digits
        with mpmath.workdps(d):
            least = min(a - b for a, b in zip(rs.alphas, rs.alphas[1:]))
            assert abs(min_gap(k) - least) < mpmath.mpf(10) ** -(d - 10), k
    with pytest.raises(ValueError):
        min_gap(1)
    with pytest.raises(ValueError):
        min_gap(5, 10)


def test_cyclotomic_magnitudes(table10k):
    local = PrimeLocalData(2, table10k[2])
    mags = cyclotomic_factor_magnitudes(local, 6)
    assert [d for d, _ in mags] == [2, 3, 6]
    with mpmath.workdps(60):
        # |Phi_2| = |alpha + beta| = |tau(2)|, |Phi_3| = |tau(4)|
        assert abs(mags[0][1] - 24) < mpmath.mpf(10) ** -50
        assert abs(mags[1][1] - 1472) < mpmath.mpf(10) ** -45
        prod = mags[0][1] * mags[1][1] * mags[2][1]
        assert abs(prod - abs(table10k[32])) / abs(table10k[32]) < mpmath.mpf(10) ** -50


def test_cyclotomic_validation(table10k):
    with pytest.raises(ValueError):
        cyclotomic_factor_magnitudes(PrimeLocalData(2, table10k[2]), 1)
    with pytest.raises(DegenerateDiscriminantError):
        cyclotomic_factor_magnitudes(PrimeLocalData(2, 91), 6)


def test_growth_check(table10k):
    for p in (2, 47):
        local = PrimeLocalData(p, table10k[p])
        report = growth_check(local, 60)
        assert len(report) == 60
        assert all(flag for _, flag in report)


def test_approximation_quality_p2_k1(table10k):
    local = PrimeLocalData(2, table10k[2])
    q = approximation_quality(local, 1, 50)
    assert q.j_star == 1
    with mpmath.workdps(50):
        assert abs(q.distance - mpmath.mpf(23) / 32) < mpmath.mpf(10) ** -45
        expected_threshold = 1 / (64 * mpmath.power(32, mpmath.mpf(5) / 2))
        assert abs(q.threshold - expected_threshold) < mpmath.mpf(10) ** -45
    assert q.triggered is False


def root_scan(local, rs):
    """Reference: argmin over the whole root set, ties to the smaller j."""
    approx = Fraction(local.y_p, local.x_p)
    height = max(abs(approx.numerator), approx.denominator)
    with mpmath.workdps(rs.precision_digits):
        ratio = mpmath.mpf(approx.numerator) / approx.denominator
        distances = [abs(a - ratio) for a in rs.alphas]
        j = min(range(rs.k), key=distances.__getitem__)
        threshold = 1 / (64 * mpmath.power(height, mpmath.mpf(5) / 2))
        return j + 1, distances[j], threshold, bool(distances[j] < threshold)


def test_approximation_quality_matches_root_scan(table2k):
    small = [PrimeLocalData(p, table2k[p]) for p in sympy.primerange(2, 51)]
    large = [PrimeLocalData(p, table2k[p]) for p in (2, 251, 1999)]
    for k, locals_ in [*((k, small) for k in range(1, 41)), (100, large), (300, large)]:
        for digits in (None, 20, 60, 200):
            rs = root_set(k, digits)
            for local in locals_:
                got = tuple(approximation_quality(local, k, digits))
                assert got == root_scan(local, rs), (local.p, k, digits)


def test_approximation_quality_outside_deligne():
    # tau(p)^2 >= 4 p^11 puts the ratio above every root (acos would leave the
    # reals); tau(p) = 0 puts it below every root.
    for tau_p, k, want in ((10**6, 5, 1), (-(10**6), 40, 1), (2 * 2**11, 3, 1), (0, 5, 5), (0, 1, 1)):
        local = PrimeLocalData(2, tau_p)
        q = approximation_quality(local, k)
        assert q.j_star == want, (tau_p, k)
        assert tuple(q) == root_scan(local, root_set(k)), (tau_p, k)
