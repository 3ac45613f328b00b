"""Prime-value search over tau(p^{2k}) and the residue census."""

import errno
import os
import signal
import sys
import threading
import time
import tracemalloc
from itertools import islice
from math import prod

import pytest

from tauprimes import search
from tauprimes.congruence import Class23Tag, allowed_residues_for_prime_value, excluded_b_set
from tauprimes.hecke import PrimeLocalData, hecke_terms, tau_prime_power
from tauprimes.primality import is_probable_prime, primes_up_to
from tauprimes.search import (
    Verdict,
    _sieve_product,
    census_by_residue,
    index_divisor,
    rebuild_hits,
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
    assert index_divisor(row, 4) == abs(row[1])  # 2k + 1 = 9: u_3 divides u_9
    # 2411 divides every tau(2411^m), m >= 1, and 2411 = 1 (mod 5).
    local = PrimeLocalData(2411, table10k[2411])
    row = [tau_prime_power(local, 2 * k) for k in range(3)]
    assert row[2] % 2411 == 0 and index_divisor(row, 2) % 2411 == 0
    assert index_divisor([1, LEHMER_VALUE], 1) == 1  # a prime value has no proper divisor
    assert index_divisor([1, 1031], 1) == 1  # nor has a prime q = -1 (mod 3) of the sieve itself


def test_index_divisor_reads_only_two_entries(table2k):
    # A dict raises KeyError on any read but row[k] and row[(d - 1) / 2].
    for p in (2, 3, 17, 251):
        row = list(islice(hecke_terms(table2k[p], p**11), 0, 121, 2))
        for k in range(1, 61):
            n = 2 * k + 1
            d = next(d for d in range(3, n + 1, 2) if n % d == 0)
            if d < n:
                j = (d - 1) // 2
                assert index_divisor({k: row[k], j: row[j]}, k) == index_divisor(row, k), (p, k)
    row = list(islice(hecke_terms(table2k[251], 251**11), 0, 3, 2))
    assert index_divisor({1: row[1]}, 1) == index_divisor(row, 1) == 1  # n = 3 is prime: Lehmer's value


def test_rebuild_keeps_the_index_divisor(table2k):
    # tau(17^8) = u_9 is odd, of 180 bits, with no prime factor below 1024,
    # and u_3 = tau(17^2) divides it: to refute a forged ProbablePrime the
    # rebuilt row must hold row[1] as well as row[4].
    (hit,) = [h for h in search_prime_tau(17, 4, 2**200, table=table2k) if (h.p, h.k) == (17, 4)]
    assert hit.verdict is Verdict.COMPOSITE and hit.value.bit_length() == 180
    assert rebuild_hits({(17, 4): Verdict.PROBABLE_PRIME}, table=table2k) == [hit]


def test_rows_hold_only_what_is_read(table2k):
    # One row to k = 2000: its values tau(2^{2k}) take about 3 MB together.
    # The search holds the in-cap ones only, the rebuild the claimed k only.
    whole = sum(map(sys.getsizeof, islice(hecke_terms(-24, 2**11), 0, 4001, 2)))
    tracemalloc.start()
    try:
        hits = search_prime_tau(2, 2000, 10**100, table=table2k)
        search_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rebuilt = rebuild_hits({(2, 2000): Verdict.COMPOSITE}, table=table2k)
        rebuild_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [h.k for h in hits] == list(range(1, 31))
    assert rebuilt[0].value == tau_prime_power(PrimeLocalData(2, -24), 4000)
    assert whole > 2_500_000
    assert search_peak < whole / 20 and rebuild_peak < whole / 20


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


def test_admissibility_error_names_bits(table2k, monkeypatch):
    # The message must not format the value: past 4300 digits str() raises.
    monkeypatch.setattr(search, "allowed_residues_for_prime_value", lambda k: frozenset())
    with pytest.raises(RuntimeError) as caught:
        search_prime_tau(300, 1, 10**27, table=table2k)
    message = str(caught.value)
    assert "p=251 k=1 residue=1 class=NonResidue allowed=[]" in message
    assert f"{LEHMER_VALUE.bit_length()} bits" in message
    assert str(-LEHMER_VALUE) not in message


# Grids for the forked route: the p = 2 row, p = 23, composite and prime
# 2k + 1, values below 2^64 and caps that cut rows in the middle.
SPLIT_GRIDS = [(60, 12, 10**90), (700, 8, 10**45), (2500, 24, 10**60)]


@pytest.fixture
def fork_calls(monkeypatch):
    """Count os.fork calls; each still forks."""
    calls = []
    real_fork = os.fork

    def spy():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls


def _force_split(monkeypatch, cores):
    monkeypatch.setattr(search, "_FORK_MIN_WORK", 0)
    monkeypatch.setattr(search, "_usable_cores", lambda: cores)


def _serial(grid, table):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_usable_cores", lambda: 1)
        return search_prime_tau(*grid, table=table)


@pytest.mark.parametrize("cores", [2, 3])
def test_forked_verdicts_match_serial(table10k, monkeypatch, fork_calls, cores):
    monkeypatch.setattr(search, "_usable_cores", lambda: 1)
    serial = {grid: search_prime_tau(*grid, table=table10k) for grid in SPLIT_GRIDS}
    assert fork_calls == []
    _force_split(monkeypatch, cores)
    for grid, hits in serial.items():
        del fork_calls[:]
        assert search_prime_tau(*grid, table=table10k) == hits, grid
        assert len(fork_calls) == cores - 1, grid
    # The grids cover what the split must get right.
    for (_, k_max, _), hits in serial.items():
        last_k = {}
        for h in hits:
            last_k[h.p] = h.k
        assert any(k < k_max for k in last_k.values())  # a row cut by the cap
    hits = [h for grid_hits in serial.values() for h in grid_hits]
    heavy = [h for h in hits if h.value % 2 and abs(h.value) >= 2**64]
    assert {2, 23} <= {h.p for h in hits}
    assert any(is_probable_prime(2 * h.k + 1) for h in heavy)
    assert any(not is_probable_prime(2 * h.k + 1) for h in heavy)
    assert any(h.verdict is Verdict.PROBABLE_PRIME for h in heavy)
    assert any(h.value % 2 and 2 < abs(h.value) < 2**64 for h in hits)


def test_no_fork_below_threshold_one_core_or_second_thread(table10k, monkeypatch, fork_calls):
    grid = (2500, 24, 10**60)
    monkeypatch.setattr(search, "_usable_cores", lambda: 2)
    search_prime_tau(300, 1, 10**27, table=table10k)  # below the real threshold
    search_prime_tau(2, 1500, 10**5000, table=table10k)  # the all-even long row
    assert fork_calls == []
    _force_split(monkeypatch, 1)
    search_prime_tau(*grid, table=table10k)
    assert fork_calls == []
    _force_split(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        search_prime_tau(*grid, table=table10k)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert fork_calls == []
    search_prime_tau(*grid, table=table10k)
    assert len(fork_calls) == 1


def test_failing_child_raises(table10k, monkeypatch):
    _force_split(monkeypatch, 2)
    parent = os.getpid()
    verdict_for = search._verdict_for

    def child_fails(row, k):
        if os.getpid() != parent:
            raise ValueError("lost verdict")
        return verdict_for(row, k)

    monkeypatch.setattr(search, "_verdict_for", child_fails)
    with pytest.raises(RuntimeError, match=r"verdict worker \d+ exited with status 1 after 0 of \d+ verdicts"):
        search_prime_tau(700, 8, 10**45, table=table10k)


def test_failing_parent_kills_and_reaps_children(table10k, monkeypatch, fork_calls):
    _force_split(monkeypatch, 3)
    parent = os.getpid()

    def stuck_child_failing_parent(row, k):
        if os.getpid() != parent:
            time.sleep(30)
        raise ValueError("parent share failed")

    monkeypatch.setattr(search, "_verdict_for", stuck_child_failing_parent)
    statuses = []
    waitpid = os.waitpid

    def record(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped)
        return reaped

    monkeypatch.setattr(os, "waitpid", record)
    start = time.monotonic()
    with pytest.raises(ValueError, match="parent share failed"):
        search_prime_tau(700, 8, 10**45, table=table10k)
    assert time.monotonic() - start < 20
    assert len(fork_calls) == 2
    assert len(statuses) == 2
    for pid, status in statuses:
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        with pytest.raises(ChildProcessError):
            waitpid(pid, os.WNOHANG)


def test_fork_failure_falls_back_to_serial(table10k, monkeypatch):
    grid = (700, 8, 10**45)
    serial = _serial(grid, table10k)
    _force_split(monkeypatch, 3)
    attempts = []

    def no_fork():
        attempts.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert search_prime_tau(*grid, table=table10k) == serial
    assert len(attempts) == 2
