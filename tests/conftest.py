"""Suite-wide test settings: a test that runs past ``TIME_LIMIT_S`` fails.

Without the limit, an engine that loops forever hangs the suite instead of
failing it.  The alarm reaches the main process only; a hang inside a
forked sweep worker is caught there, while the parent waits for that
worker's results, and the parent then kills its workers.
"""

import signal

import pytest

# the slowest test, test_graphs.py::test_cover_independence_duality_exhaustive_small,
# took 7.4 to 8.3 s on a 2-core Xeon (CPython 3.11), so a test still running
# at 60 s is hung
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past its limit.

    Not an ``Exception``, so neither the test body nor hypothesis catches
    it and runs the body again with the alarm already spent.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test still running after {TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
