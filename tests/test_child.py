"""The fork helper's rule against nesting, and where a child's stream is checked."""

import pytest

from dyckwalk import child
from dyckwalk.child import _in_child

from conftest import child_fault, needs_fork


def forks_again(forks):
    """In a child: 1 for each fork the child would refuse, 0 for one it
    would make, then the forks the child made."""
    yield int(not child._second_cpu())
    inner = iter([1])
    yield int(_in_child(inner, "inner") is inner)
    yield len(forks) - 1  # the outer fork, counted before the child began


@needs_fork
def test_a_child_does_not_fork_again(forks):
    assert list(_in_child(forks_again(forks), "outer")) == [1, 1, 0]
    assert forks == [1]


@needs_fork
def test_a_process_with_a_running_child_does_not_fork_again(forks):
    assert child._second_cpu()
    outer = _in_child(iter([1, 2]), "outer")
    assert not child._second_cpu()
    inner = iter([3])
    assert _in_child(inner, "inner") is inner
    assert list(outer) == [1, 2]
    assert forks == [1]
    # the stream read to its end: the child is reaped, and a fork may follow
    assert child._second_cpu()
    assert list(_in_child(iter([3]), "next")) == [3]
    assert forks == [1, 1]


@needs_fork
def test_a_closed_stream_lets_the_process_fork_again(forks):
    outer = _in_child(iter(range(10 ** 6)), "outer")
    assert next(outer) == 0
    outer.close()
    assert child._second_cpu()
    assert forks == [1]


@needs_fork
def test_a_stream_is_checked_where_it_ends(forks):
    def items():
        yield from [1, 2, 3]
        child_fault("exits-nonzero")

    stream = _in_child(items(), "x", 3)
    # every item written is read, the last included, before any check runs
    assert [next(stream) for _ in range(3)] == [1, 2, 3]
    message = "the x's child process ended with wait status 256 after writing a stream cut short"
    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        next(stream)
    assert forks == [1]
