"""Suite-wide guard: a test still running after a minute ends the run."""

import faulthandler
import os
import sys

import pytest

HANG_SECONDS = 60  # the slowest test takes under 2 s

_stderr: list[int] = []


def pytest_configure(config):
    # Output capture is not yet on here; inside a test, stderr is captured
    # and a dump written to it would be lost when the process exits.
    _stderr.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    os.close(_stderr.pop())


@pytest.fixture(autouse=True)
def hang_guard():
    """Dump every thread's stack and exit if the test outlives HANG_SECONDS,
    so a looping fault fails fast and shows where it loops."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=_stderr[0])
    yield
    faulthandler.cancel_dump_traceback_later()
