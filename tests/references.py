"""Exact identities and closed forms that only the tests use.

Each is a second route to a number the package computes another way:
Horner evaluation of a polynomial at a rational point, one coefficient
of P_m by math.comb, the bounded-path series at x = p*(1-p) from
genfunc's rational function, and the first-step decomposition of the
walk's conditional hit time.  No command calls them, so they live beside
the tests that check the package against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dyckwalk.genfunc import series_denominator, series_numerator
from dyckwalk.heightpoly import check_step_probability
from dyckwalk.poly import IntPoly
from dyckwalk.walk import conditional_hit_time, hit_probability


def eval_at(a: IntPoly, q: Fraction) -> Fraction:
    """Horner evaluation at an exact rational point."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * q + c
    return acc


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


def path_series_closed(m: int, p: Fraction) -> Fraction:
    """Value of sum_k (2k+1) A(m-2, k) x^k at x = p*(1-p), closed form.

    Evaluates the rational function

        [x**(m-1) * (1-2m) + P_{2m-1}(x)] / [(1-4x) * P_m(x)**2]

    exactly; it equals hit_probability(m,p)/p * conditional_hit_time(m,p).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    check_step_probability(p)
    x = p * (1 - p)
    # the generating function of genfunc at height bound n = m - 2
    return eval_at(series_numerator(m - 2), x) / eval_at(series_denominator(m - 2), x)


def renewal_identity_holds(m: int, p: Fraction) -> bool:
    """Check the first-step decomposition of the conditional hit time.

    With H = hit_probability(m, p) and T_i = conditional_hit_time(i, p):
    a successful walk either steps right immediately (probability p,
    one step) or steps left yet still succeeds (probability H - p,
    costing the step plus a return to m-1 plus a fresh passage to m), so

        H * T_m == p + (H - p) * (1 + T_{m-1} + T_m)

    must hold exactly.  conditional_hit_time is a closed form, so this
    is a check of it, independent of how it is computed.
    """
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    hit = hit_probability(m, p)
    t_prev = conditional_hit_time(m - 1, p)
    t_cur = conditional_hit_time(m, p)
    return hit * t_cur == p + (hit - p) * (1 + t_prev + t_cur)
