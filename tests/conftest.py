"""Checks that hold after every test in this directory."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """A test leaves no forked process behind: every column block a solve forks is reaped before it returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " + (f"{pid} unreaped" if pid else "running"))
