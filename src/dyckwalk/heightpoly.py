"""The polynomial family behind height-bounded path counts.

``height_poly(m)`` is the integer polynomial P_m defined by

    P_1 = P_2 = 1,        P_m = P_{m-1} - x * P_{m-2}   (m >= 3),

a rescaled Chebyshev-like (Fibonacci-polynomial-type) family of degree
floor((m-1)/2) with constant term 1.  Its closed-form coefficients are
alternating binomials, exposed separately as an independent cross-check.

The same module evaluates the exact rational quantities that the
polynomials encode for an asymmetric walk with step-right probability p:

    power_diff(i, p)       = (1-p)**i - p**i
    power_diff_ratio(m, p) = power_diff(m-1, p) / power_diff(m, p)

The bridge identity tying the two views together, for p != 1/2 and
x = p*(1-p):

    height_poly(m) evaluated at x  ==  power_diff(m, p) / power_diff(1, p)

Note that power_diff(1, p)**2 == 1 - 4x, which is how the factor (1-4x)
enters every denominator downstream.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .poly import ONE, IntPoly, add, mul

_MINUS_X: IntPoly = (0, -1)

# Monotone append-only cache: _cache[m] is P_m once len(_cache) > m.
# Entries are immutable tuples, so readers that find an entry may use it
# without holding the lock; the lock only serializes extension.
_cache: list[IntPoly] = [(), ONE, ONE]
_cache_lock = threading.Lock()


def height_poly(m: int) -> IntPoly:
    """Return P_m by the three-term recurrence, memoized for all i <= m."""
    if m < 1:
        raise ValueError(f"index must be a positive integer, got {m}")
    if m < len(_cache):
        return _cache[m]
    with _cache_lock:
        while len(_cache) <= m:
            nxt = add(_cache[-1], mul(_MINUS_X, _cache[-2]))
            _cache.append(nxt)
    return _cache[m]


def height_poly_coeff(m: int, j: int) -> int:
    """Coefficient of x**j in P_m by the closed form (-1)**j * C(m-1-j, j).

    Independent of the recurrence; used to cross-check height_poly.
    """
    if m < 1:
        raise ValueError(f"index must be a positive integer, got {m}")
    if j < 0 or j > (m - 1) // 2:
        return 0
    return (-1) ** j * math.comb(m - 1 - j, j)


def power_diff(i: int, p: Fraction) -> Fraction:
    """(1-p)**i - p**i, exact."""
    if i < 0:
        raise ValueError(f"exponent must be nonnegative, got {i}")
    return (1 - p) ** i - p ** i


def check_step_probability(p: Fraction) -> None:
    """Reject p outside (0, 1) or equal to 1/2, where the ratios degenerate."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in the open interval (0, 1), got {p}")
    if 2 * p == 1:
        raise ValueError("p = 1/2 is excluded: every power_diff(i, 1/2) vanishes")


def power_diff_ratio(m: int, p: Fraction) -> Fraction:
    """power_diff(m-1, p) / power_diff(m, p) for m >= 2, p in (0,1) \\ {1/2}.

    Equals the probability of advancing one node (before ruin) divided
    by the single-step probability p; see the walk module.
    """
    if m < 2:
        raise ValueError(f"index must be >= 2, got {m}")
    check_step_probability(p)
    return power_diff(m - 1, p) / power_diff(m, p)
