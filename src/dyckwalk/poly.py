"""Dense univariate polynomials with exact integer coefficients.

A polynomial is a tuple of Python ints, index j holding the coefficient
of x**j.  The zero polynomial is the empty tuple; otherwise the last
entry is nonzero.  Tuples keep values immutable, so a result can be
shared without a copy.  Everything here is exact: coefficients
are arbitrary-precision ints.  ``series_coeffs`` expands a quotient of
them as a truncated power series.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

IntPoly = tuple[int, ...]

ZERO: IntPoly = ()


def normalize(coeffs: Iterable[int]) -> IntPoly:
    """Drop trailing zero coefficients; the canonical constructor."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a: IntPoly, b: IntPoly) -> IntPoly:
    """Coefficient-wise sum."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] += c
    return normalize(out)


def mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Convolution product."""
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return normalize(out)


def series_coeffs(num: Sequence[int], den: IntPoly, kmax: int) -> list[int]:
    """First kmax+1 coefficients of num/den as a formal power series.

    num may be a polynomial or a series already cut after x**kmax.
    Requires den to have constant term 1, which makes every coefficient
    an integer via the linear recurrence

        c_k = num_k - sum_{j=1..k} den_j * c_{k-j}.

    den_1..den_kmax is reversed once into rev, and the coefficients
    start with len(rev) zeros, those below x**0, so every inner sum is
    rev against the coefficients just before c_k, and runs in C.
    """
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    rev = tuple(reversed(den[1:kmax + 1]))
    d = len(rev)
    coeffs = [0] * d + list(num[:kmax + 1])
    coeffs += [0] * (d + kmax + 1 - len(coeffs))
    for k in range(d, d + kmax + 1):
        coeffs[k] -= sum(map(operator.mul, rev, coeffs[k - d:k]))
    return coeffs[d:]
