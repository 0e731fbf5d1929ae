"""The polynomial family behind height-bounded path counts.

``height_poly(m)`` is the integer polynomial P_m of the three-term
recurrence

    P_1 = P_2 = 1,        P_m = P_{m-1} - x * P_{m-2}   (m >= 3),

a rescaled Chebyshev-like (Fibonacci-polynomial-type) family of degree
floor((m-1)/2) with constant term 1.  It is built from the closed form
of its coefficients, the alternating binomials

    [x**j] P_m = (-1)**j * C(m-1-j, j),

one exact multiplicative update per coefficient, so a call costs O(m)
big-int operations on numbers of O(m) bits and keeps nothing once its
result is dropped (de Bruijn, Knuth and Rice, "The average height of
planted plane trees", 1972).  ``height_poly_coeff(m, j)`` evaluates one
coefficient by math.comb, and the recurrence itself is kept in the tests
as the cross-check.

Like the Fibonacci polynomials, P_m factors over the integers by the
divisors of m: P_d divides P_m when d divides m, and P_m is irreducible
when m is prime (Webb and Parberry, "Divisibility properties of Fibonacci
polynomials", Fibonacci Quarterly 7, 1969).  ``height_factors(m, kmax)``
returns the Moebius factors R_d, one for each divisor d >= 3 of m, of
degree phi(d)/2 and with far smaller coefficients than P_m:

    P_m = prod_{d | m, d >= 3} R_d,        R_d = P_d / prod_{e | d, 3 <= e < d} R_e.

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
from typing import TYPE_CHECKING

from .poly import IntPoly, normalize, series_coeffs

if TYPE_CHECKING:
    from fractions import Fraction


def height_poly(m: int) -> IntPoly:
    """Return P_m from its binomial closed form.

    With N = m - 1, |[x**j] P_m| = C(N-j, j), and consecutive binomials
    differ by the exact ratio

        C(N-j-1, j+1) = C(N-j, j) * (N-2j) * (N-2j-1) / ((j+1) * (N-j)),

    so each coefficient is one multiplication and one exact division of
    the previous one, with the sign flipped.
    """
    if m < 1:
        raise ValueError(f"index must be a positive integer, got {m}")
    n = m - 1
    coeffs = [1]
    c = 1
    for j in range(n // 2):
        c = c * -((n - 2 * j) * (n - 2 * j - 1)) // ((j + 1) * (n - j))
        coeffs.append(c)
    return tuple(coeffs)


def height_factors(m: int, kmax: int) -> list[IntPoly]:
    """The factors R_d of P_m, for the divisors d >= 3 of m in ascending
    order, each cut after x**kmax.

    R_d is the series quotient of P_d by the R_e of the divisors
    3 <= e < d of d, mod x**(t+1) with t = min(kmax, deg P_d), with its
    trailing zeros trimmed.  So the factors multiply to P_m mod
    x**(kmax+1) by construction, whatever the divisibility theory says.
    When deg P_d <= kmax the quotient must also have degree at most
    deg P_d - sum of deg R_e: then R_d times the R_e has degree at most
    deg P_d and agrees with P_d mod x**(deg P_d + 1), so it is P_d, and
    the division is exact.  A quotient that fails this raises
    AssertionError, which only a bug can cause; by the theory its degree
    is phi(d)/2.  Dividing no further than deg P_d skips the zero tail
    that a division to x**kmax would spend most of its work on.
    """
    if m < 1:
        raise ValueError(f"index must be a positive integer, got {m}")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    divisors = [d for d in range(3, m + 1) if m % d == 0]
    factors: dict[int, IntPoly] = {}
    for i, d in enumerate(divisors):
        poly = height_poly(d)
        cut = min(kmax, len(poly) - 1)
        series = poly[:cut + 1]
        room = len(poly) - 1  # deg P_d less the degrees divided out
        for e in divisors[:i]:
            if d % e == 0:
                series = series_coeffs(series, factors[e], cut)
                room -= len(factors[e]) - 1
        factors[d] = normalize(series)
        if len(poly) - 1 <= kmax and len(factors[d]) - 1 > room:
            raise AssertionError(
                f"P_{d} is not divisible by the factors of its divisors: "
                f"the quotient has degree {len(factors[d]) - 1}, above {room}"
            )
    return list(factors.values())


def height_poly_coeff(m: int, j: int) -> int:
    """Coefficient of x**j in P_m by the closed form (-1)**j * C(m-1-j, j).

    Computed by math.comb, apart from height_poly's multiplicative
    updates; used to cross-check it.
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
