import os

import mpmath
import pytest

from tauprimes import bounds
from tauprimes.cache import write_cache
from tauprimes.series import DEFAULT_LIMIT_CEILING, delta_series


@pytest.fixture(autouse=True)
def no_child_left():
    # Every child a test forks or spawns must be reaped by the time it ends.
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid: pid {pid}, status {status})")


@pytest.fixture(autouse=True)
def no_precision_left():
    # mpmath's precision is process-wide: a test that leaves it changed runs
    # every later test at the wrong precision.
    prec = mpmath.mp.prec
    yield
    if mpmath.mp.prec != prec:
        pytest.fail(f"the test left mpmath.mp.prec at {mpmath.mp.prec}, not {prec}")


@pytest.fixture(autouse=True)
def fixed_contexts_kept():
    # bounds._CTX is the package's one context shared across threads, safe
    # only while nothing changes its precision; every other computes per
    # thread inside workdps blocks.
    yield
    if bounds._CTX.dps != bounds.DEFAULT_DPS:
        pytest.fail(f"the test left bounds._CTX at {bounds._CTX.dps} digits, not {bounds.DEFAULT_DPS}")


@pytest.fixture(scope="session")
def table200k():
    # ~1.1 s once per session (17/31-digit limbs); every smaller table
    # truncates from this.
    return delta_series(DEFAULT_LIMIT_CEILING)


@pytest.fixture(scope="session")
def table100k(table200k):
    return table200k.truncated(100_000)


@pytest.fixture(scope="session")
def table10k(table100k):
    return table100k.truncated(10_000)


@pytest.fixture(scope="session")
def table2k(table100k):
    return table100k.truncated(2_000)


@pytest.fixture(scope="session")
def cache_file_100k(table100k, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "taucache.txt"
    write_cache(table100k, path)
    return path


@pytest.fixture(scope="session")
def cache_file_200k(table200k, tmp_path_factory):
    # Reaches the 2*10^5 ceiling, so `verify` reads every table from it.
    path = tmp_path_factory.mktemp("cache") / "taucache.txt"
    write_cache(table200k, path)
    return path
