"""Reference values the benchmark checks dyckwalk's outputs against.

Everything here comes from textbook formulas and shares no code with the
package: the reflection principle for bounded Dyck paths, the binomial
closed form of the height polynomials, the gambler's-ruin probability and
the first-step equations of the absorbing walk.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _binom(n: int, r: int) -> int:
    return comb(n, r) if 0 <= r <= n else 0


def reflection_count(n: int, k: int) -> int:
    """Dyck paths of order k with height <= n, by the reflection principle.

    A(n, k) = sum over all integers j of
              C(2k, k + j(n+2)) - C(2k, k + j(n+2) + 1).
    """
    w = n + 2
    reach = 2 * k // w + 1
    return sum(
        _binom(2 * k, k + j * w) - _binom(2 * k, k + j * w + 1)
        for j in range(-reach, reach + 1)
    )


def height_poly_coeffs(m: int) -> list[int]:
    """Coefficients of P_m: the coefficient of x**j is (-1)**j * C(m-1-j, j)."""
    return [(-1) ** j * comb(m - 1 - j, j) for j in range((m - 1) // 2 + 1)]


def parse_p(text: str) -> Fraction:
    """The exact step probability written as 'a/b'."""
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def ruin_probability(m: int, p: Fraction) -> Fraction:
    """Chance that the walk on 0..m from m-1 reaches m before 0."""
    return ruin_probabilities(m, p)[m - 1]


def ruin_probabilities(m: int, p: Fraction) -> list[Fraction]:
    """Chance of reaching m before 0 from each node i = 0..m.

    i/m at p = 1/2, else (1 - r**i) / (1 - r**m) with r = (1-p)/p.
    """
    if 2 * p == 1:
        return [Fraction(i, m) for i in range(m + 1)]
    r = (1 - p) / p
    powers = [Fraction(1)]
    for _ in range(m):
        powers.append(powers[-1] * r)
    return [(1 - powers[i]) / (1 - powers[m]) for i in range(m + 1)]


def _sweep(p, rhs: list) -> list[tuple]:
    """Forward sweep of the Thomas algorithm for the walk's first-step system

        x_i = rhs_i + p x_{i+1} + (1-p) x_{i-1}   (0 < i < m),   x_0 = x_m = 0.

    Entry i-1 holds (c_i, d_i) with x_i = d_i - c_i x_{i+1}, so the last d
    is x_{m-1}.  Works on Fractions and on floats alike.
    """
    q = 1 - p
    c = d = 0 * p
    out = []
    for value in rhs[1:-1]:
        den = 1 + q * c
        c, d = -p / den, (value + q * d) / den
        out.append((c, d))
    return out


def _solve(p, rhs: list) -> list:
    """All of x_0..x_m: the forward sweep, then back substitution."""
    x = [0 * p] * len(rhs)
    for i, (c, d) in reversed(list(enumerate(_sweep(p, rhs), start=1))):
        x[i] = d - c * x[i + 1]
    return x


def conditional_hit_time(m: int, p: Fraction) -> Fraction:
    """Expected steps from m-1 to m, given m is reached before 0, exactly.

    g_i = E[T; absorbed at m] from node i solves g_i = h_i + p g_{i+1} +
    (1-p) g_{i-1} with g_0 = g_m = 0, h_i being the ruin probability from i;
    the answer is g_{m-1} / h_{m-1}.
    """
    h = ruin_probabilities(m, p)
    return _sweep(p, h)[-1][1] / h[m - 1]


def conditional_hit_variance(m: int, p: Fraction) -> float:
    """Variance of the steps from m-1 to m, given m is reached before 0.

    s_i = E[T**2; absorbed at m] solves s_i = 2 g_i - h_i + p s_{i+1} +
    (1-p) s_{i-1} with zero boundary values.  Computed in floats: it only
    sets the scale of a standard error.
    """
    pf = float(p)
    h = [float(x) for x in ruin_probabilities(m, p)]
    g = _solve(pf, h)
    s = _sweep(pf, [2 * gi - hi for gi, hi in zip(g, h)])[-1][1]
    mean = g[m - 1] / h[m - 1]
    return s / h[m - 1] - mean * mean


def symmetric_hit_time(m: int) -> Fraction:
    """Conditional hitting time at p = 1/2 from m-1: (m**2 - (m-1)**2) / 3."""
    return Fraction(2 * m - 1, 3)
