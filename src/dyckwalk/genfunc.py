"""Closed-form generating function for height-bounded Dyck path counts.

Let A(n, k) be the number of Dyck paths of order k (2k steps) whose
peaks all have height <= n.  The weighted series sum_k (2k+1) A(n,k) x^k
is the rational function

    numerator(n)   = (-2n-3) * x**(n+1) + P_{2n+3}(x)
    denominator(n) = (1 - 4x) * P_{n+2}(x)**2

with P_m the polynomial family from the heightpoly module.  Expanding
numerator/denominator as a formal power series gives integer
coefficients c_k (the denominator has constant term 1), and the theory
guarantees every c_k is divisible by 2k+1; the quotients are the counts.
Divisibility is checked on every extraction, so a failure can only mean
an implementation bug and raises DivisibilityError rather than rounding.

The denominator is never expanded.  count_table divides the numerator
by P_{n+2} twice and then by 1 - 4x, all of it series arithmetic mod
x**(kmax+1).  A P_{n+2} whose coefficients fit one digit goes in
through them by poly.series_coeffs; any other by the walk sweep of
heightpoly, which adds where the coefficient division would multiply
by coefficients of about 0.7 * n bits.  On a large row the two sweeps
run as a pipeline, the first in a forked child process on the second
CPU, streaming its quotient to the second sweep through a pipe.
"""

from __future__ import annotations

import os
import sys
from contextlib import closing
from typing import Iterable, Iterator, NamedTuple

from .heightpoly import divide_by_height_poly, height_poly, sweep_height_poly
from .poly import IntPoly, mul, series_coeffs

_ONE_MINUS_4X: IntPoly = (1, -4)
_DIGIT_BITS = sys.int_info.bits_per_digit
# count_table runs its two sweeps as a pipeline of two processes when
# the additions that overlap, kmax * min(kmax, n) (the second sweep's
# steps up to 2 * kmax, which run while the first is still sweeping),
# reach this.  A fork cost 3.5 ms in a `table` process ((47, 0): 3.9 ms
# forked, 0.3 ms in one process) and more in `verify`, whose larger heap
# the parent faults back in page by page after each fork.  Forking every
# sweep row (medians of three runs, 2 cores): verify --n-max 100 --k-max
# 1000, overlaps 47,000-100,000, went 3.6 -> 4.2 s, its 54 forks adding
# 25,000 minor faults and 0.15 s of system time; --k-max 2000, overlaps
# 94,000-200,000, went 11.3 -> 10.4 s.  In `table`, rows of
# 50,000-160,000 came out between -16 and +8 ms (medians of 15 pairs,
# in-process), and (100, 4000), at 400,000, gains about 0.1 s.
PIPELINE_MIN_WORK = 120_000
# The length that ends a child's stream: every int takes at least one byte.
_END = bytes(4)


class DivisibilityError(ArithmeticError):
    """A series coefficient was not divisible by its 2k+1 factor.

    This signals an internal inconsistency (a bug), never bad input.
    """


class CountTable(NamedTuple):
    """Counts A(n, k) for one height bound n and 0 <= k <= kmax."""

    n: int
    kmax: int
    counts: tuple[int, ...]


def series_numerator(n: int) -> IntPoly:
    """Numerator polynomial (-2n-3) * x**(n+1) + P_{2n+3}(x).

    P_{2n+3} has degree n+1 and leading coefficient +-1, so the sum is
    one edit of its last coefficient and stays nonzero there.
    """
    if n < 0:
        raise ValueError(f"height bound must be nonnegative, got {n}")
    coeffs = list(height_poly(2 * n + 3))
    coeffs[n + 1] -= 2 * n + 3
    return tuple(coeffs)


def series_denominator(n: int) -> IntPoly:
    """Denominator polynomial (1 - 4x) * P_{n+2}(x)**2."""
    if n < 0:
        raise ValueError(f"height bound must be nonnegative, got {n}")
    h = height_poly(n + 2)
    return mul(_ONE_MINUS_4X, mul(h, h))


def counts_from_series(coeffs: list[int]) -> tuple[int, ...]:
    """Divide coefficient k by 2k+1, demanding exactness."""
    counts = []
    for k, c in enumerate(coeffs):
        q, r = divmod(c, 2 * k + 1)
        if r:
            raise DivisibilityError(
                f"coefficient {c} at k={k} is not divisible by {2 * k + 1}"
            )
        counts.append(q)
    return tuple(counts)


def count_table(n: int, kmax: int) -> CountTable:
    """Exact A(n, 0..kmax) extracted from the closed form.

    The numerator is divided by the denominator's factors one at a time
    rather than by their product: by P_{n+2} twice, then by 1 - 4x.
    Every division is exact series arithmetic mod x**(kmax+1), so the
    quotient is the same integer series as one division by
    (1 - 4x) * P_{n+2}**2.  P_{n+2} goes in by its coefficients when
    each fits one digit (n <= 46); otherwise by the walk sweep of
    heightpoly, whose additions cost less than products with
    coefficients of many digits: P_1002 has 8,501 30-bit digits of them.

    The two sweeps form a pipeline: the second takes term j of the first
    one's quotient at its step 2j, and the first reads that term at its
    step 2j + n.  When the additions that overlap, kmax * min(kmax, n),
    reach PIPELINE_MIN_WORK and a second CPU is usable, the first sweep runs
    in a forked child that streams its quotient to the second one here;
    otherwise the same chain runs in this process.  The arguments are
    checked before any fork, and a child that fails raises
    ChildProcessError.
    """
    series = series_numerator(n)
    den = height_poly(n + 2)
    if max(map(abs, den)).bit_length() <= _DIGIT_BITS:
        series = series_coeffs(series, den, kmax)
        series = series_coeffs(series, den, kmax)
    else:
        first = sweep_height_poly(series, n + 2, kmax)
        if kmax * min(kmax, n) >= PIPELINE_MIN_WORK and _second_cpu():
            first = _in_child(first, "sweep", kmax + 1)
        with closing(first):
            series = divide_by_height_poly(first, n + 2, kmax)
    series = series_coeffs(series, _ONE_MINUS_4X, kmax)
    return CountTable(n=n, kmax=kmax, counts=counts_from_series(series))


def _second_cpu() -> bool:
    """Whether this process may fork and run on at least two CPUs."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _in_child(terms: Iterable[int], what: str, count: int | None = None) -> Iterator[int]:
    """The items of `terms`, computed in a child process forked at once.

    The child is running when this returns, so the caller can work
    alongside it before it reads the items.  The child iterates `terms`
    and writes each int to a pipe as soon as it has it, as a 4-byte length
    and its signed little-endian bytes, then a length of zero to end the
    stream, and exits by os._exit, so it never returns into the caller's
    stack or flushes a buffer it inherited.  The stream must have its end
    and the child must have exited with status 0 before the iterator ends,
    and before its `count`-th item is yielded when `count` is given (the
    caller may stop reading there); otherwise ChildProcessError names
    `what` and the wait status.  Closing the iterator early kills and
    reaps the child, so none is left behind.  If the fork fails, the
    items come from this process.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the same terms, from this one
        os.close(read_fd)
        os.close(write_fd)
        return iter(terms)
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            for value in terms:
                data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
                _write(write_fd, len(data).to_bytes(4, "little") + data)
            _write(write_fd, _END)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    items = _from_child(pid, read_fd, what, count)
    next(items)  # into its try, so that closing it kills and reaps the child
    return items


def _write(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _from_child(pid: int, read_fd: int, what: str, count: int | None) -> Iterator[int]:
    """_in_child's items, read from the child `pid` through `read_fd`."""
    pipe = open(read_fd, "rb")
    status = None
    try:
        yield 0  # taken by _in_child
        written = 0
        while (head := pipe.read(4)) != _END and len(head) == 4:
            data = pipe.read(int.from_bytes(head, "little"))
            written += 1
            if written == count:  # held back until the child is known to have ended well
                head = pipe.read(4)
                break
            yield int.from_bytes(data, "little", signed=True)
        whole = head == _END and count in (None, written) and not pipe.read(1)
        # Closed first, so that a child with more to write ends too.
        pipe.close()
        _, status = os.waitpid(pid, 0)
        if status or not whole:
            short = "a stream cut short" if count is None else f"other than {count} terms"
            raise ChildProcessError(
                f"the {what}'s child process ended with wait status {status}"
                + ("" if whole else f" after writing {short}")
            )
        if count is not None:
            yield int.from_bytes(data, "little", signed=True)
    finally:
        pipe.close()
        if status is None:
            # Imported here: signal builds its enums on import, a cost
            # that every other run would pay.
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
