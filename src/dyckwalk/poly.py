"""Dense univariate polynomials with exact integer coefficients.

A polynomial is a tuple of Python ints, index j holding the coefficient
of x**j.  The zero polynomial is the empty tuple; otherwise the last
entry is nonzero.  Tuples keep values immutable and hashable, so they
are safe to cache and share.  Everything here is exact: coefficients
are arbitrary-precision ints and evaluation points are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

IntPoly = tuple[int, ...]

ZERO: IntPoly = ()
ONE: IntPoly = (1,)


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


def shift(a: IntPoly, t: int) -> IntPoly:
    """Multiply by x**t (t >= 0)."""
    if t < 0:
        raise ValueError(f"shift amount must be nonnegative, got {t}")
    if not a:
        return ZERO
    return (0,) * t + a


def eval_at(a: IntPoly, q: Fraction) -> Fraction:
    """Horner evaluation at an exact rational point."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * q + c
    return acc
