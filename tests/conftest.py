"""Fixtures and child faults shared by every test module."""

import os
import signal

import pytest

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")

# pytest's own process; a child forked by the code under test has another pid.
TEST_PID = os.getpid()


def child_fault(kind: str) -> None:
    """Meet the fault `kind` of CHILD_FAULTS, as a forked child.

    Met in the test's own process, where the code under test forked no
    child, a kill or an exit would end pytest with no summary, or read as
    a pass at status 0, so it fails the test instead.
    """
    if os.getpid() == TEST_PID:
        pytest.fail(f"the child fault {kind!r} ran in the test's own process: nothing forked")
    if kind == "raises":
        raise RuntimeError("injected fault in a child")
    if kind == "killed":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(0 if kind == "exits-0" else 1)


# Each child fault, met partway through the child's stream, and the wait
# status it gives; none writes the stream's end.
CHILD_FAULTS = [
    pytest.param(kind, status, id=kind)
    for kind, status in [
        ("raises", 1 << 8),  # the child's finally exits with status 1
        ("killed", signal.SIGKILL),
        ("exits-0", 0),
        ("exits-nonzero", 1 << 8),
    ]
]


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {pid}, {status})")


@pytest.fixture(autouse=True)
def no_descriptor_left_open():
    """Fail a test after which this process holds a descriptor that it did
    not hold before, such as a child's pipe left unclosed."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    left = set(os.listdir("/proc/self/fd")) - before
    if left:
        pytest.fail(f"the test left descriptors {sorted(left, key=int)} open")


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
