"""Fixtures shared by every test module."""

import os

import pytest

from dyckwalk import cli, genfunc


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
    """Open the gates of count_table's pipeline, to every sweep row, of
    walk.simulate's split, to every run of more than one pool, and of
    verify's split, to every grid of more than one row, as on a host with
    two CPUs, and count the forks this process makes."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(genfunc, "PIPELINE_MIN_WORK", 0)
    monkeypatch.setattr(cli, "VERIFY_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return made
