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

The denominator is never expanded: count_table divides by its factors
in turn, and on a large row runs its two walk sweeps as a pipeline of
two processes.
"""

from __future__ import annotations

import sys
from contextlib import closing
from typing import NamedTuple

from .child import _in_child
from .heightpoly import divide_by_height_poly, height_poly, sweep_height_poly
from .poly import IntPoly, mul, series_coeffs

_ONE_MINUS_4X: IntPoly = (1, -4)
_DIGIT_BITS = sys.int_info.bits_per_digit


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

    No path of order k <= kmax rises above kmax, so a bound n > kmax
    changes no count and no coefficient checked against 2k+1: the chain
    runs at h = min(n, kmax).  The numerator is divided by the
    denominator's factors one at a time rather than by their product: by
    P_{h+2} twice, then by 1 - 4x.  Every division is exact series
    arithmetic mod x**(kmax+1), so the quotient is the same integer
    series as one division by (1 - 4x) * P_{h+2}**2.  P_{h+2} goes in by
    its coefficients when each fits one digit (h <= 46); otherwise by the
    walk sweep of heightpoly, whose additions cost less than products
    with coefficients of many digits: P_1002 has 8,501 30-bit digits.

    The two sweeps form a pipeline: the second takes term j of the first
    one's quotient at its step 2j, and the first reads that term at its
    step 2j + h.  So every sweep row hands the first sweep to _in_child,
    which runs it in a forked child that streams its quotient to the
    second one here, or, with one usable CPU, a failed pipe or fork, or a
    process that is a child or has one running (as each of verify's bands
    does), hands it back to be pulled term by term in this process.  Its
    stream is read to its end, where a child that failed or wrote other
    than kmax+1 terms raises ChildProcessError; the arguments are checked
    before any fork (series_coeffs names a negative kmax).
    """
    h = min(n, max(kmax, 0))
    series = series_numerator(h)
    den = height_poly(h + 2)
    if max(map(abs, den)).bit_length() <= _DIGIT_BITS:
        series = series_coeffs(series, den, kmax)
        series = series_coeffs(series, den, kmax)
    else:
        first = _in_child(sweep_height_poly(series, h + 2, kmax), "sweep", kmax + 1)
        with closing(first):
            series = divide_by_height_poly(first, h + 2, kmax)
            for _ in first:  # to its end, where a child's stream is checked
                pass
    series = series_coeffs(series, _ONE_MINUS_4X, kmax)
    return CountTable(n=n, kmax=kmax, counts=counts_from_series(series))
