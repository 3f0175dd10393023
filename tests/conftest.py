"""Tier-1 watchdog: a test that hangs fails instead of stalling the run.

Every test runs under ``faulthandler.dump_traceback_later``: once a
test has run for ``HANG_BOUND_S`` the watchdog thread writes every
thread's traceback to stderr and exits the process with status 1.
It needs no signal, so it leaves SIGALRM and ``setitimer`` to the
tests and to the farm's serial path, which use them.

The bound is about 17x the slowest tier-1 test (17.5 s, measured with
``--durations=20`` on 2 vCPUs), so only a hang can reach it.

The run also points ``REPRO_FARM_CACHE`` at a temporary directory for
its whole length (subprocesses inherit it), so no test writes farm
results into ``~/.cache/repro-farm`` or a cache the caller configured.
"""

import faulthandler
import os
import shutil
import sys
import tempfile

import pytest

HANG_BOUND_S = 300.0

# A duplicate of the terminal's stderr, taken while output capture is
# suspended: the watchdog exits the process, so a traceback written to
# a capture buffer would never be shown.
_STDERR_FD = pytest.StashKey[int]()
_FARM_CACHE = "REPRO_FARM_CACHE"
_SAVED_FARM_CACHE = pytest.StashKey[tuple]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())
    cache_dir = tempfile.mkdtemp(prefix="repro-farm-tests-")
    config.stash[_SAVED_FARM_CACHE] = (cache_dir,
                                       os.environ.get(_FARM_CACHE))
    os.environ[_FARM_CACHE] = cache_dir


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])
    cache_dir, saved = config.stash[_SAVED_FARM_CACHE]
    if saved is None:
        os.environ.pop(_FARM_CACHE, None)
    else:
        os.environ[_FARM_CACHE] = saved
    shutil.rmtree(cache_dir, ignore_errors=True)


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    faulthandler.dump_traceback_later(
        HANG_BOUND_S, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
