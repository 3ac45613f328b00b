"""The one way the package changes mpmath's working precision."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import mpmath

_LOCK = threading.RLock()


@contextmanager
def workdps(digits: int):
    """mpmath.workdps(digits), held by one thread at a time.

    mpmath's precision is one setting for the whole process: two threads
    whose workdps blocks interleave would each restore the other's precision
    on exit, leaving one computing at the wrong precision and the process at
    whatever the last block restored.  The lock is reentrant, so a block may
    call code that opens its own.  Close every block before a generator
    yields or the process forks: a lock held there is held by a suspended
    frame or by a child that has no thread to release it.
    """
    with _LOCK, mpmath.workdps(digits):
        yield
