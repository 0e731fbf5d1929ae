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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .heightpoly import height_poly
from .poly import IntPoly, add, mul, shift

_ONE_MINUS_4X: IntPoly = (1, -4)


class DivisibilityError(ArithmeticError):
    """A series coefficient was not divisible by its 2k+1 factor.

    This signals an internal inconsistency (a bug), never bad input.
    """


@dataclass(frozen=True)
class CountTable:
    """Counts A(n, k) for one height bound n and 0 <= k <= kmax."""

    n: int
    kmax: int
    counts: tuple[int, ...]


def series_numerator(n: int) -> IntPoly:
    """Numerator polynomial (-2n-3) * x**(n+1) + P_{2n+3}(x)."""
    if n < 0:
        raise ValueError(f"height bound must be nonnegative, got {n}")
    return add(shift((-2 * n - 3,), n + 1), height_poly(2 * n + 3))


def series_denominator(n: int) -> IntPoly:
    """Denominator polynomial (1 - 4x) * P_{n+2}(x)**2."""
    if n < 0:
        raise ValueError(f"height bound must be nonnegative, got {n}")
    h = height_poly(n + 2)
    return mul(_ONE_MINUS_4X, mul(h, h))


def series_coeffs(num: Sequence[int], den: IntPoly, kmax: int) -> list[int]:
    """First kmax+1 coefficients of num/den as a formal power series.

    num may be a polynomial or a series already cut after x**kmax.
    Requires den to have constant term 1, which makes every coefficient
    an integer via the linear recurrence

        c_k = num_k - sum_{j=1..k} den_j * c_{k-j}.
    """
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    coeffs = [0] * (kmax + 1)
    for k in range(kmax + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs[k] = acc
    return coeffs


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

    The numerator is divided by the denominator's factors one at a time,
    P_{n+2}, P_{n+2} again, then 1 - 4x, rather than by their product:
    the same integer series, but the long divisions multiply by the
    coefficients of P_{n+2}, which have half the bits of those of
    P_{n+2}**2.
    """
    num = series_numerator(n)
    h = height_poly(n + 2)
    series = series_coeffs(num, h, kmax)
    series = series_coeffs(series, h, kmax)
    series = series_coeffs(series, _ONE_MINUS_4X, kmax)
    return CountTable(n=n, kmax=kmax, counts=counts_from_series(series))
