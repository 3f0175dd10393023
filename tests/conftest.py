"""Tier-1 watchdog: a test that hangs fails instead of stalling the run.

Every test runs under ``faulthandler.dump_traceback_later``: once a
test has run for ``HANG_BOUND_S`` the watchdog thread writes every
thread's traceback to stderr and exits the process with status 1.
It needs no signal, so it leaves SIGALRM and ``setitimer`` to the
tests and to the farm's serial path, which use them.

The bound is about 17x the slowest tier-1 test (17.5 s, measured with
``--durations=20`` on 2 vCPUs), so only a hang can reach it.
"""

import faulthandler
import os
import sys

import pytest

HANG_BOUND_S = 300.0

# A duplicate of the terminal's stderr, taken while output capture is
# suspended: the watchdog exits the process, so a traceback written to
# a capture buffer would never be shown.
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    faulthandler.dump_traceback_later(
        HANG_BOUND_S, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
