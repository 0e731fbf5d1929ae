"""Recurrence polynomial family and its power-difference counterpart."""

import gc
import math
from functools import lru_cache
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckwalk.heightpoly import (
    check_step_probability,
    divide_by_height_poly,
    height_poly,
    power_diff,
    power_diff_ratio,
    sweep_height_poly,
)
from dyckwalk.poly import add, mul, normalize, series_coeffs

from references import eval_at, height_poly_coeff


def recurrence_height_poly(m: int) -> tuple[int, ...]:
    """P_m by the rolling three-term recurrence P_i = P_{i-1} - x * P_{i-2}.

    The reference height_poly is checked against: it never uses the
    binomial closed form.
    """
    prev, cur = (1,), (1,)
    for _ in range(3, m + 1):
        prev, cur = cur, add(cur, mul((0, -1), prev))
    return cur


def totient(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def product(polys) -> tuple[int, ...]:
    out = (1,)
    for f in polys:
        out = mul(out, f)
    return out


@lru_cache(maxsize=None)
def divisor_factors(m: int) -> dict[int, tuple[int, ...]]:
    """The factors R_d of P_m, one for each divisor d >= 3 of m.

    Like the Fibonacci polynomials, P_m factors by the divisors of m
    (Webb and Parberry, Fibonacci Quarterly 7, 1969):
    P_m = prod_{d | m, d >= 3} R_d with R_d = P_d / prod_{e | d, 3 <= e < d} R_e,
    each quotient taken here by series division to the degree of P_d.
    """
    factors = {}
    for d in (d for d in range(3, m + 1) if m % d == 0):
        deg = len(height_poly(d)) - 1
        series = height_poly(d)
        for e, factor in factors.items():
            if d % e == 0:
                series = series_coeffs(series, factor, deg)
        factors[d] = normalize(series)
    return factors


def least_divisor(m: int) -> int:
    """The least divisor d >= 3 of m, so that P_d is a proper factor of P_m
    whenever m has one; m itself for m <= 2."""
    return min((d for d in range(3, m + 1) if m % d == 0), default=m)


def random_probability(rng: random.Random) -> Fraction:
    # any rational in (0, 1) except 1/2
    while True:
        den = rng.randint(2, 40)
        num = rng.randint(1, den - 1)
        p = Fraction(num, den)
        if p != Fraction(1, 2):
            return p


@pytest.mark.parametrize(
    "m, expected",
    [
        (1, (1,)),
        (2, (1,)),
        (3, (1, -1)),
        (4, (1, -2)),
        (5, (1, -3, 1)),
        (6, (1, -4, 3)),
        (7, (1, -5, 6, -1)),
    ],
)
def test_height_poly_small_values(m, expected):
    assert height_poly(m) == expected


@pytest.mark.parametrize("m", [0, -1, -7])
def test_height_poly_rejects_nonpositive_index(m):
    with pytest.raises(ValueError):
        height_poly(m)


@pytest.mark.parametrize("m", range(3, 41))
def test_height_poly_satisfies_recurrence(m):
    lhs = height_poly(m)
    minus_x_prev = (0, *(-c for c in height_poly(m - 2)))  # -x * P_{m-2}
    rhs = add(height_poly(m - 1), minus_x_prev)
    assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 65))
def test_coefficients_match_binomial_closed_form(m):
    poly = height_poly(m)
    assert len(poly) - 1 == (m - 1) // 2
    assert poly[0] == 1
    for j, coeff in enumerate(poly):
        assert coeff == (-1) ** j * math.comb(m - 1 - j, j)
        assert coeff == height_poly_coeff(m, j)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=600))
def test_closed_form_equals_the_recurrence(m):
    assert height_poly(m) == recurrence_height_poly(m)


def test_large_index_matches_binomials_and_keeps_nothing():
    m = 20000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        poly = height_poly(m)
        assert len(poly) == (m - 1) // 2 + 1
        for j in (0, 1, 2, 999, 3333, 5000, 7777, len(poly) - 1):
            assert poly[j] == height_poly_coeff(m, j), j
        del poly
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # P_20000 itself holds about 10 MB of coefficients
    assert retained < 64 * 1024


@pytest.mark.parametrize("m", [*range(2, 65), 1002, 1999])
def test_sweep_undoes_a_product_with_the_height_polynomial(m):
    # node m-2 has both parities over the m; kmax below, at and past deg P_m
    deg = (m - 1) // 2
    kmaxes = {deg // 2, deg, deg + 3} | ({0, 4 * deg + 9} if m <= 64 else set())
    rng = random.Random(m)
    q = [rng.randrange(-2**64, 2**64) for _ in range(max(kmaxes) + 1)]
    # the product mod x**(kmax+1) depends on q[:kmax+1] alone
    series = mul(height_poly(m), tuple(q))
    for kmax in sorted(kmaxes):
        assert divide_by_height_poly(series[:kmax + 1], m, kmax) == q[:kmax + 1], kmax


@pytest.mark.parametrize("m", range(2, 13))
def test_sweep_of_a_short_series_is_the_series_division(m):
    # 1/P_m, whose coefficients count the walks from node 0 to node m-2
    assert divide_by_height_poly((1,), m, 30) == series_coeffs((1,), height_poly(m), 30)
    assert divide_by_height_poly((), m, 4) == [0] * 5


@pytest.mark.parametrize("m", range(3, 301))
def test_divisor_factors_multiply_to_the_height_polynomial(m):
    factors = divisor_factors(m)
    assert product(factors.values()) == height_poly(m)
    for d, factor in factors.items():
        assert factor[0] == 1
        assert len(factor) - 1 == totient(d) // 2, d
    if all(m % d for d in range(2, m)):
        assert list(factors.values()) == [height_poly(m)]
    # the sweep divides P_m by each P_d exactly, leaving the factors R_e
    # of the divisors e of m that do not divide d
    deg = len(height_poly(m)) - 1
    for d in factors:
        cofactor = product(f for e, f in factors.items() if d % e)
        assert normalize(divide_by_height_poly(height_poly(m), d, deg)) == cofactor, d


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=250))
def test_factors_cut_at_kmax_multiply_to_the_cut_polynomial(m, kmax):
    # the quotient by a factor P_d of P_m, cut after x**kmax, times P_d is
    # P_m cut after x**kmax, and past deg P_m it is a polynomial
    d = least_divisor(m)
    cut = height_poly(m)[:kmax + 1]
    quotient = divide_by_height_poly(cut, d, kmax)
    assert mul(height_poly(d), tuple(quotient))[:kmax + 1] == cut
    if kmax >= len(height_poly(m)) - 1:
        assert len(normalize(quotient)) == len(height_poly(m)) - len(height_poly(d)) + 1


@pytest.mark.parametrize("kmax", [0, 1, 2, 7, 30, 74, 75, 149, 150, 151, 400])
def test_factors_match_the_kmax_cut_construction(kmax):
    # P_m / P_d by the sweep mod x**(kmax+1) is the product of the factors
    # R_e that P_d leaves out, and the series division of the cut P_m
    for m in range(2, 301):
        d = least_divisor(m)
        cut = height_poly(m)[:kmax + 1]
        quotient = divide_by_height_poly(cut, d, kmax)
        assert quotient == series_coeffs(cut, height_poly(d), kmax), m
        cofactor = product(f for e, f in divisor_factors(m).items() if d % e)
        assert normalize(quotient) == normalize(cofactor[:kmax + 1]), m


def test_factors_of_the_first_two_indices_are_none():
    # P_1 = P_2 = 1, and dividing by P_2 leaves a series as it is
    assert divisor_factors(1) == divisor_factors(2) == {}
    assert height_poly(1) == height_poly(2) == (1,)
    assert divide_by_height_poly((3, -1, 4, 1, -5), 2, 4) == [3, -1, 4, 1, -5]
    assert divide_by_height_poly((3, -1, 4, 1, -5), 2, 6) == [3, -1, 4, 1, -5, 0, 0]


def test_sweep_rejects_bad_arguments():
    for m in (1, 0, -3):
        with pytest.raises(ValueError):
            divide_by_height_poly((1, 2), m, 5)
    with pytest.raises(ValueError):
        divide_by_height_poly((1, 2), 6, -1)


def test_sweep_rejects_bad_arguments_at_the_call():
    # before the first coefficient is asked for, so a caller can check its
    # arguments in one process and iterate the sweep in another
    with pytest.raises(ValueError):
        sweep_height_poly((1, 2), 1, 5)
    with pytest.raises(ValueError):
        sweep_height_poly((1, 2), 6, -1)


@pytest.mark.parametrize("m, kmax", [(2, 0), (2, 9), (3, 9), (12, 0), (12, 3), (12, 40), (49, 30)])
def test_sweep_takes_term_j_at_step_2j(m, kmax):
    # coefficient k is read at step 2k + m-2, by which the sweep has taken
    # terms 0..k + (m-2)//2, and never more than terms 0..kmax
    taken = []

    def terms():
        for j in range(kmax + 5):
            taken.append(j)
            yield j + 1

    series = [j + 1 for j in range(kmax + 5)]
    quotient = []
    for k, c in enumerate(sweep_height_poly(terms(), m, kmax)):
        assert taken == list(range(min(kmax, k + (m - 2) // 2) + 1)), k
        quotient.append(c)
    assert taken == list(range(kmax + 1))
    assert quotient == series_coeffs(series, height_poly(m), kmax)


def test_coeff_out_of_range_is_zero():
    assert height_poly_coeff(7, 4) == 0
    assert height_poly_coeff(1, 1) == 0
    assert height_poly_coeff(5, -1) == 0


def test_coeff_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        height_poly_coeff(0, 0)


def test_repeated_calls_return_identical_polynomials():
    first = height_poly(25)
    assert height_poly(25) == first
    assert height_poly(9) == (1, -7, 15, -10, 1)


def test_power_diff_examples():
    assert power_diff(0, Fraction(1, 3)) == 0
    assert power_diff(1, Fraction(1, 3)) == Fraction(1, 3)
    assert power_diff(3, Fraction(1, 3)) == Fraction(7, 27)
    assert power_diff(2, Fraction(1, 5)) == Fraction(3, 5)


def test_power_diff_rejects_negative_exponent():
    with pytest.raises(ValueError):
        power_diff(-1, Fraction(1, 3))


@pytest.mark.parametrize("seed", range(4))
def test_power_diff_factors_through_height_poly(seed):
    # (1-p)^i - p^i = (1-2p) * P_i evaluated at x = p(1-p)
    rng = random.Random(seed)
    for _ in range(10):
        p = random_probability(rng)
        x = p * (1 - p)
        for i in range(1, 21):
            assert power_diff(i, p) == (1 - 2 * p) * eval_at(height_poly(i), x)


@pytest.mark.parametrize("seed", range(4))
def test_power_diff_satisfies_shifted_recurrence(seed):
    rng = random.Random(50 + seed)
    for _ in range(10):
        p = random_probability(rng)
        x = p * (1 - p)
        for m in range(2, 21):
            assert power_diff(m - 1, p) - power_diff(m, p) == x * power_diff(m - 2, p)


@pytest.mark.parametrize("seed", range(4))
def test_squared_base_case_gives_one_minus_four_x(seed):
    rng = random.Random(90 + seed)
    for _ in range(20):
        p = random_probability(rng)
        x = p * (1 - p)
        assert power_diff(1, p) ** 2 == eval_at((1, -4), x)


def test_power_diff_ratio_examples():
    assert power_diff_ratio(3, Fraction(1, 3)) == Fraction(9, 7)
    assert power_diff_ratio(4, Fraction(1, 3)) == Fraction(7, 5)
    assert power_diff_ratio(2, Fraction(1, 4)) == 1


@pytest.mark.parametrize("m", [1, 0, -2])
def test_power_diff_ratio_needs_index_at_least_two(m):
    with pytest.raises(ValueError):
        power_diff_ratio(m, Fraction(1, 3))


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 4), Fraction(7, 6)])
def test_step_probability_domain_is_enforced(p):
    with pytest.raises(ValueError):
        check_step_probability(p)
    with pytest.raises(ValueError):
        power_diff_ratio(3, p)


def test_step_probability_accepts_interior_points():
    check_step_probability(Fraction(1, 3))
    check_step_probability(Fraction(499, 1000))


def test_denominator_factorization_uses_squared_family():
    # (1 - 4x) * P_m(x)^2 at x = p(1-p) collapses to a squared power difference
    p = Fraction(2, 7)
    x = p * (1 - p)
    for m in range(2, 12):
        h = height_poly(m)
        assert eval_at(mul((1, -4), mul(h, h)), x) == power_diff(m, p) ** 2
