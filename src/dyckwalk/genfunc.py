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
x**(kmax+1).  A P_{n+2} with coefficients of one digit, or of degree past
kmax, goes in through its coefficients by poly.series_coeffs; any other
by the walk sweep heightpoly.divide_by_height_poly, which adds where the
coefficient division would multiply by coefficients of about 0.7 * n
bits.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .heightpoly import divide_by_height_poly, height_poly
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

    The numerator is divided by the denominator's factors one at a time
    rather than by their product: by P_{n+2} twice, then by 1 - 4x.
    Every division is exact series arithmetic mod x**(kmax+1), so the
    quotient is the same integer series as one division by
    (1 - 4x) * P_{n+2}**2.  P_{n+2} goes in by its coefficients when
    each fits one digit (n <= 46) or its degree passes kmax; otherwise
    by heightpoly.divide_by_height_poly, whose additions cost less than
    products with coefficients of many digits: P_1002 has 8,501 30-bit
    digits of them.
    """
    series = series_numerator(n)
    den = height_poly(n + 2)
    if len(den) - 1 > kmax or max(map(abs, den)).bit_length() <= _DIGIT_BITS:
        series = series_coeffs(series, den, kmax)
        series = series_coeffs(series, den, kmax)
    else:
        series = divide_by_height_poly(series, n + 2, kmax)
        series = divide_by_height_poly(series, n + 2, kmax)
    series = series_coeffs(series, _ONE_MINUS_4X, kmax)
    return CountTable(n=n, kmax=kmax, counts=counts_from_series(series))
