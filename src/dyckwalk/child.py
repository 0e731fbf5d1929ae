"""Work run in a forked child process, its ints streamed back through a pipe.

count_table's pipeline, walk.simulate's split and verify's upper band of
rows each hand _in_child an iterator of ints whenever their work has two
parts, and read the same ints back to their end, where the stream is
checked.  _in_child alone decides whether a child computes them; if none
does, the caller reads its own iterator, so it keeps one path.  A child,
or a process whose child is running, does not fork again: the two
processes already hold both CPUs.  So verify's bands run count_table in
one process each; with its pipeline forking inside both, verify
--n-max 100 --k-max 2000 took 3.94 s against 3.67 s, and --k-max 4000
12.85 s against 11.74 s (medians of 4 and 3 alternating runs, 2 cores).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

# The length that ends a child's stream: every int takes at least one byte.
_END = bytes(4)
# True in a forked child, and in its parent until it closes the child's stream.
_busy = False


def _second_cpu() -> bool:
    """Whether this process may fork and run on at least two CPUs, with no
    child of its own running, and is not itself a child."""
    if _busy or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _in_child(terms: Iterable[int], what: str, count: int | None = None) -> Iterator[int]:
    """The items of `terms`, computed in a child process forked at once, or
    iter(terms) itself, with no child, when one CPU is usable, when this
    process is a child or has one running, or when the pipe or fork fails.

    The child is running when this returns, so the caller can work
    alongside it before it reads the items.  The child iterates `terms`
    and writes each int to a pipe as soon as it has it, as a 4-byte length
    and its signed little-endian bytes, then a length of zero to end the
    stream, and exits by os._exit, so it never returns into the caller's
    stack or flushes a buffer it inherited.  The caller reads the items to
    their end, where every check runs: the stream has its end and no byte
    after it, `count` items when `count` is given, and the child exited
    with status 0; otherwise ChildProcessError names `what`, the wait
    status and how the stream fell short.  Closing the iterator early
    kills and reaps the child, so none is left behind.
    """
    global _busy
    if not _second_cpu():
        return iter(terms)
    fds = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or no process to spare
        for fd in fds:
            os.close(fd)
        return iter(terms)
    if pid == 0:
        _busy = True
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for value in terms:
                    data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
                    pipe.write(len(data).to_bytes(4, "little") + data)
                    pipe.flush()
                pipe.write(_END)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    items = _from_child(pid, read_fd, what, count)
    next(items)  # into its try, so that closing it kills and reaps the child
    return items


def _from_child(pid: int, read_fd: int, what: str, count: int | None) -> Iterator[int]:
    """_in_child's items, read from the child `pid` through `read_fd`."""
    global _busy
    pipe = open(read_fd, "rb")
    status = None
    try:
        _busy = True
        yield 0  # taken by _in_child
        written = 0
        while (head := pipe.read(4)) != _END and len(head) == 4:
            data = pipe.read(int.from_bytes(head, "little"))
            written += 1
            yield int.from_bytes(data, "little", signed=True)
        whole = head == _END and not pipe.read(1)
        # Closed first, so that a child with more to write ends too.
        pipe.close()
        _, status = os.waitpid(pid, 0)
        short = "" if whole else " after writing a stream cut short"
        if whole and count not in (None, written):
            short = f" after writing other than {count} terms"
        if status or short:
            raise ChildProcessError(
                f"the {what}'s child process ended with wait status {status}{short}"
            )
    finally:
        _busy = False
        pipe.close()
        if status is None:
            # Imported here: signal builds its enums on import, a cost
            # that every other run would pay.
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
