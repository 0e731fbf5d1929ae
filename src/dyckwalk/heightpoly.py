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
planted plane trees", 1972).  The tests hold it to math.comb coefficient
by coefficient and to the recurrence itself.

P_m is also det(I - sqrt(x) * A) for the adjacency matrix A of the path
on nodes 0..m-2, so 1/P_m counts the walks on that path from one end to
the other (Flajolet, "Combinatorial aspects of continued fractions",
1980).  ``sweep_height_poly(series, m, kmax)`` divides a series by P_m
that way, with additions alone, and yields the quotient one coefficient
at a time; ``divide_by_height_poly`` lists them.  Neither multiplies by
P_m's coefficients, which run to about 0.7 * m bits.

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

from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator

from .poly import IntPoly

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


def divide_by_height_poly(series: Iterable[int], m: int, kmax: int) -> list[int]:
    """series / P_m mod x**(kmax+1), by additions alone: the coefficients
    of sweep_height_poly, in a list."""
    return list(sweep_height_poly(series, m, kmax))


def sweep_height_poly(series: Iterable[int], m: int, kmax: int) -> Iterator[int]:
    """The coefficients of series / P_m mod x**(kmax+1), one at a time.

    P_m(x) = det(I - sqrt(x) * A) for the adjacency matrix A of the path
    on nodes 0..m-2, so 1/P_m = sum_k w_k x**k, where w_k counts the walks
    of 2k + m-2 steps from node 0 to node m-2 (Flajolet 1980).  Term j of
    the series enters node 0 at step 2j, every step sends each node's
    value to both neighbours, and quotient coefficient k is read at node
    m-2 at step 2k + m-2: it is sum_j series_j * w_{k-j}.

    Only the nodes of the step's parity change at step t, and only those
    in [t - 2*kmax, t]: nodes above t are still zero, and a node below
    t - 2*kmax can no longer reach node m-2 by the last step read.  So a
    step is one map of additions over a strided slice, and the whole
    division takes at most (2*kmax + m) * min(kmax, m/2) additions.

    The arguments are checked at the call, the series as the sweep goes:
    term j is taken at step 2j, so when coefficient k is given the sweep
    has taken terms 0..min(kmax, k + (m-2)//2) and no more.  A series
    that ends early goes on as zeros.
    """
    if m < 2:
        raise ValueError(f"index must be >= 2, got {m}")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    return _sweep(iter(series), m - 2, kmax)


def _sweep(terms: Iterator[int], top: int, kmax: int) -> Iterator[int]:
    # nodes[i + 1] holds node i; nodes -1 and top+1 stay zero
    nodes = [0] * (top + 3)
    for t in range(2 * kmax + top + 1):
        # the lowest and highest node of t's parity that the step updates
        lo = max(t - 2 * kmax, t % 2)
        hi = min(t, top - (top - t) % 2)
        nodes[lo + 1:hi + 2:2] = map(add, nodes[lo:hi + 1:2], nodes[lo + 2:hi + 3:2])
        if t % 2 == 0 and t <= 2 * kmax:
            nodes[1] += next(terms, 0)
        if t >= top and (t - top) % 2 == 0:
            yield nodes[top + 1]


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
