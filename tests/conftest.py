"""Checks that every test in this directory passes through."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test leaves no child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left behind (%s)"
                % ("still running" if pid == 0 else "pid %d" % pid))
