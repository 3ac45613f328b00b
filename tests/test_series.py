"""Series engine: cube series, packed squarings, tau tables."""

import hashlib
import io
from bisect import bisect_left
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauprimes.cache import dump_cache
from tauprimes.errors import BudgetExceededError
from tauprimes.series import (
    DEFAULT_LIMIT_CEILING,
    TauTable,
    _cube_terms,
    _divisor_sums,
    _limb_width,
    _sparse_square,
    _square,
    delta_series,
    tau_values,
)
from tauprimes.verify import brute_force_delta

EXPANSION_HEAD = [1, -24, 252, -1472, 4830]
LEHMER_VALUE = -80561663527802406257321747

# Sizes n <= 2000 where a limb width of delta_series(n) grows; at n - 1 the
# narrower width is closest to its bound.  The engine squares twice, and each
# stage packs at the digits of 2*sum h_i^2 over the coefficients h it squares:
# cube^2 (steps 2, 3, 5, 10, 22, 44, 94, 203, 430, 921, 1990) and cube^4
# (2, 3, 4, 6, 8, 12, 16, 22, 35, 50, 69, 106, 153, 226, 337, 477, 710, 1066,
# 1540).  The rest (7, 46, 79, 137, 232, 407, 742, 1327) are kept from the
# earlier first stage, which packed the cube at the digits of 2*W^4, W the
# sum of |c| over the cube terms below degree n.
WIDTH_STEPS = (
    2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 22, 35, 44, 46, 50, 69, 79, 94, 106,
    137, 153, 203, 226, 232, 337, 407, 430, 477, 710, 742, 921, 1066, 1327,
    1540, 1990,
)
# brute_force_delta takes about 2 s at 1540 terms and grows as n^2; larger
# sizes are checked against table100k, which TAUCACHE_DIGESTS pins.
BRUTE_LIMIT = 1540

# SHA-256 of the TAUCACHE bytes of tau(1..limit), recorded from the earlier
# eight-multiplication engine; 2000 and 63001 equal perfbench's CACHE_DIGESTS.
TAUCACHE_DIGESTS = {
    2000: "694a47576062d65d18d8edc4628d1756459340d5a5ea82c319fb835d9a691d37",
    63001: "f945c9aea54cff1a2622f6fc5fdcb078366691ca13fe0f3b000d433bf4dc0c70",
    100_000: "b8c7afb50c10245810952abab01e0120d59191bf84024c9e3b2e90270dc929b1",
}


def brute_cube(limit):
    # prod (1-q^n)^3 by naive repeated multiplication; oracle for _cube_terms.
    poly = [0] * (limit + 1)
    poly[0] = 1
    for n in range(1, limit + 1):
        for _ in range(3):
            for i in range(limit, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


def test_jacobi_cube_small_truncations():
    assert _cube_terms(1) == ((0, 1), (1, -3))
    assert _cube_terms(6) == ((0, 1), (1, -3), (3, 5), (6, -7))


def test_jacobi_cube_matches_brute_expansion():
    for limit in (1, 2, 7, 40):
        dense = [0] * (limit + 1)
        for e, c in _cube_terms(limit):
            dense[e] = c
        assert dense == brute_cube(limit)


def test_jacobi_cube_term_shape():
    terms = _cube_terms(5000)
    for m, (e, c) in enumerate(terms):
        assert e == m * (m + 1) // 2
        assert c == (2 * m + 1) * (-1) ** m
    count = len(terms)
    assert terms[-1][0] <= 5000
    assert count * (count + 1) // 2 > 5000


def dense_square(a):
    # (sum a_i q^i)^2 below degree len(a), term by term.
    return [sum(map(mul, a[: m + 1], a[m::-1])) for m in range(len(a))]


def test_sparse_square_of_the_cube():
    for limit in range(61):
        cube = brute_cube(limit)
        assert _sparse_square(_cube_terms(limit), limit + 1) == dense_square(cube), limit


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(0, 300), st.integers(-(10**40), 10**40), max_size=40),
    st.integers(1, 400),
)
def test_sparse_square_matches_dense_square(series, n):
    # Any sparse series with ascending exponents, some of them at or past n.
    dense = [series.get(e, 0) for e in range(n)]
    assert _sparse_square(tuple(sorted(series.items())), n) == dense_square(dense)


def pack(h, w):
    # The biased limbs c + half, w digits each, highest degree first.
    half = 5 * 10 ** (w - 1)
    return [str(c + half).zfill(w) for c in reversed(h)]


def unpack(digits, w):
    # The signed coefficients of biased w-digit limbs, lowest degree first.
    half = 5 * 10 ** (w - 1)
    return [int(digits[a - w : a]) - half for a in range(len(digits), 0, -w)]


def tight_width(coeffs):
    # The fewest digits w with every |c| < 5*10^(w-1).
    return len(str(2 * max(map(abs, coeffs))))


BIG = 10**30
signed_series = st.one_of(
    st.lists(st.integers(-BIG, BIG), min_size=1, max_size=80),
    st.lists(st.integers(-BIG, -1), min_size=1, max_size=80),
    st.lists(st.integers(1, BIG), min_size=1, max_size=80).map(lambda a: [c if i % 2 else -c for i, c in enumerate(a)]),
    st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(0, 12)), min_size=1, max_size=20).map(
        lambda runs: [x for c, zeros in runs for x in [c, *[0] * zeros]]
    ),
)


@settings(max_examples=200, deadline=None)
@given(signed_series, st.integers(0, 3), st.booleans())
@example([1, -21], 0, True)  # the top limb -42 + 50 has a leading zero
def test_packed_square_matches_dense_square(h, pad, tight):
    # At _limb_width's width, its input limbs zero-padded by pad digits as
    # delta_series pads cube^4's; or at the fewest digits that hold the
    # inputs, then the outputs, where limbs reach their bounds.
    want = dense_square(h)
    if tight:
        w_in = tight_width(h)
        w = max(w_in, tight_width(want))
    else:
        w_in = _limb_width(h)
        w = w_in + pad
    digits = _square(pack(h, w_in), len(h), w_in, w)
    assert len(digits) == len(h) * w
    assert unpack(digits, w) == want


def test_second_stage_never_packs_narrower():
    # delta_series pads cube^4's w4-digit limbs to w8 = max(w4, _limb_width
    # of cube^4).  Up to 20000 terms the Cauchy-Schwarz width of cube^4 alone
    # is never below w4, so the max never changes a width.
    n = 20_000
    cube2 = _sparse_square(_cube_terms(n - 1), n)
    w = _limb_width(cube2)
    cube4 = unpack(_square(pack(cube2, w), n, w, w), w)
    assert cube4[:2000] == dense_square(cube2[:2000])
    squares2 = accumulate(map(mul, cube2, cube2))
    squares4 = accumulate(map(mul, cube4, cube4))
    assert all(len(str(2 * b)) >= len(str(2 * a)) for a, b in zip(squares2, squares4))


def width_steps(h):
    # Each n where _limb_width(h[:n]) exceeds _limb_width(h[:n - 1]); it never shrinks.
    sizes = range(1, len(h) + 1)
    widths = range(_limb_width(h[:1]) + 1, _limb_width(h) + 1)
    return {sizes[bisect_left(sizes, w, key=lambda n: _limb_width(h[:n]))] for w in widths}


def test_width_steps_cover_both_stages():
    # The widths of the two squarings, cube^2 -> cube^4 and cube^4 -> cube^8.
    cube = [0] * 2000
    for e, c in _cube_terms(len(cube) - 1):
        cube[e] = c
    cube2 = dense_square(cube)
    steps = width_steps(cube2) | width_steps(dense_square(cube2))
    assert steps <= set(WIDTH_STEPS), sorted(steps - set(WIDTH_STEPS))


def test_delta_series_matches_brute_force(table100k):
    sizes = {*range(1, 65), 500, *WIDTH_STEPS, *(n - 1 for n in WIDTH_STEPS)}
    oracle = brute_force_delta(BRUTE_LIMIT)
    for n in sorted(sizes):
        want = oracle[:n] if n <= BRUTE_LIMIT else list(table100k.coeffs[:n])
        assert list(delta_series(n).coeffs) == want, n


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4999), st.integers(1, 4999))
def test_truncation_matches_shorter_series(n, gap):
    # Each limit gets its own limb widths, so this compares two packings.
    m = min(n + gap, 5000)
    assert delta_series(m).truncated(n) == delta_series(n)


def test_taucache_digests(table100k):
    for limit, digest in TAUCACHE_DIGESTS.items():
        buf = io.StringIO()
        dump_cache(table100k.truncated(limit), buf)
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == digest, limit


def test_ramanujan_congruence_mod_691(table100k):
    # tau(n) = sigma_11(n) (mod 691), sigma_11 by a divisor sieve mod 691.
    limit = len(table100k)
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        power = pow(d, 11, 691)
        for m in range(d, limit + 1, d):
            sigma[m] += power
    assert all((t - sigma[n]) % 691 == 0 for n, t in table100k.items())


def test_delta_series_head():
    assert list(delta_series(5).coeffs) == EXPANSION_HEAD


def test_delta_series_limit_one():
    table = delta_series(1)
    assert table.limit == 1 and table[1] == 1


def test_delta_series_rejects_bad_limits():
    with pytest.raises(ValueError):
        delta_series(0)
    with pytest.raises(BudgetExceededError):
        delta_series(1000, ceiling=999)
    assert delta_series(1001, ceiling=1001).limit == 1001


def test_tau_table_indexing(table100k):
    assert table100k[1] == 1
    assert table100k[2] == -24
    with pytest.raises(IndexError):
        table100k[0]
    with pytest.raises(IndexError):
        table100k[100_001]
    assert len(table100k) == 100_000


def test_tau_table_truncation_is_prefix(table100k):
    small = table100k.truncated(500)
    assert small.coeffs == table100k.coeffs[:500]
    direct = delta_series(500)
    assert small.coeffs == direct.coeffs


def test_tau_table_validates_tau1():
    with pytest.raises(ValueError):
        TauTable((2, 3))
    with pytest.raises(ValueError):
        TauTable(())


def test_divisor_sums_match_divisor_count():
    # The naive double loop shares no code with the sieve.  Each limit is its
    # own sieve, so slices that end at a power of two or at an odd square,
    # and the limits 1, 2 and 3, are all covered.
    n = 20_000
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            s[m] += d
    assert all(_divisor_sums(limit) == s[: limit + 1] for limit in range(1, 1101))
    assert _divisor_sums(n) == s


def test_tau_values_match_series(table100k):
    assert tau_values(range(1, 501)) == {n: table100k[n] for n in range(1, 501)}
    # one sigma sieve per call, so each short sieve is checked too
    assert all(tau_values([n]) == {n: table100k[n]} for n in range(1, 301))
    assert tau_values([63001]) == {63001: LEHMER_VALUE}
    # 2^16, 2^16 + 1, 315^2 and 316^2, then primes near the table's end
    near = (65536, 65537, 99225, 99856, 99881, 99901, 99923, 99961, 99989, 99991)
    assert tau_values(near + near[:2]) == {n: table100k[n] for n in near}
    assert tau_values([]) == {}


def test_tau_values_rejects_bad_n():
    with pytest.raises(ValueError):
        tau_values([5, 0])
    over = DEFAULT_LIMIT_CEILING + 1
    with pytest.raises(BudgetExceededError) as refused:
        tau_values([2, over])
    with pytest.raises(BudgetExceededError) as series_refused:
        delta_series(over)
    assert str(refused.value) == str(series_refused.value)
