"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {pid}, {status})")


@pytest.fixture
def forks(monkeypatch):
    """Give this process two usable CPUs, so that count_table forks on
    every sweep row, walk.simulate on every run of more than one pool and
    verify on every grid of three rows or more, and count the forks this
    process makes."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return made
