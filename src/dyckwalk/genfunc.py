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
by P_{n+2} twice and then by 1 - 4x, and P_{n+2} itself goes in as
groups of its divisor factors (heightpoly.height_factors), whose
coefficients are far shorter than its own; the long divisions are bound
by big-int multiplication, so shorter divisors make them cheaper.  All
of it is series arithmetic mod x**(kmax+1) through poly.series_coeffs.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .heightpoly import height_factors, height_poly
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


def _pass_cost(group: IntPoly, kmax: int) -> int:
    """Digit multiplies per series digit of one division by group.

    Coefficient j of the divisor meets kmax+1-j coefficients of the series.
    """
    return sum(
        (kmax + 1 - j) * -(-c.bit_length() // _DIGIT_BITS)
        for j, c in enumerate(group[:kmax + 1])
    )


def _division_groups(m: int, kmax: int) -> list[IntPoly]:
    """Polynomials whose product is P_m mod x**(kmax+1), to divide by in turn.

    The factors R_d of P_m (heightpoly.height_factors) are taken in
    ascending degree, and the next one joins the current group while the
    joined group costs no more to divide by than the two apart.  P_m is
    kept whole when its coefficients each fit in one digit, where
    factors would only add passes, or when its degree passes kmax, where
    the cut factors cost more to build and divide by than the cut P_m:
    count_table(2000, 300) takes 0.14 s split against 0.04 s whole.
    """
    whole = height_poly(m)
    if len(whole) - 1 > kmax or max(map(abs, whole)).bit_length() <= _DIGIT_BITS:
        return [whole]
    groups: list[IntPoly] = []
    for factor in sorted(height_factors(m, kmax), key=len):
        if groups:
            joined = mul(groups[-1], factor)[:kmax + 1]
            if _pass_cost(joined, kmax) <= _pass_cost(groups[-1], kmax) + _pass_cost(factor, kmax):
                groups[-1] = joined
                continue
        groups.append(factor)
    return groups


def count_table(n: int, kmax: int) -> CountTable:
    """Exact A(n, 0..kmax) extracted from the closed form.

    The numerator is divided by the denominator's factors one at a time
    rather than by their product: by each group of P_{n+2}'s divisor
    factors twice (see _division_groups), then by 1 - 4x.  Every
    division is exact series arithmetic mod x**(kmax+1), so the
    quotient is the same integer series as one division by
    (1 - 4x) * P_{n+2}**2, but the long divisions multiply by
    coefficients with a fraction of the bits: P_1002 has 8,501 30-bit
    digits of coefficients, its six factors 2,503 over the same degree.
    A prime n+2 gives one factor, P_{n+2} itself.
    """
    series = series_numerator(n)
    for group in _division_groups(n + 2, kmax):
        series = series_coeffs(series, group, kmax)
        series = series_coeffs(series, group, kmax)
    series = series_coeffs(series, _ONE_MINUS_4X, kmax)
    return CountTable(n=n, kmax=kmax, counts=counts_from_series(series))
