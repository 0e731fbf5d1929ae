"""Closed-form series extraction and the exact count table."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckwalk import genfunc
from dyckwalk.genfunc import (
    CountTable,
    DivisibilityError,
    count_table,
    counts_from_series,
    series_coeffs,
    series_denominator,
    series_numerator,
)
from dyckwalk.heightpoly import divide_by_height_poly, height_poly
from dyckwalk.oracle import catalan, count_paths_dp
from dyckwalk.poly import mul, normalize


@pytest.mark.parametrize(
    "n, expected",
    [(0, (1, -4)), (1, (1, -3, -4)), (2, (1, -5, 6, -8))],
)
def test_numerator_small_values(n, expected):
    assert series_numerator(n) == expected


@pytest.mark.parametrize(
    "n, expected",
    [(0, (1, -4)), (1, (1, -6, 9, -4)), (2, (1, -8, 20, -16))],
)
def test_denominator_small_values(n, expected):
    assert series_denominator(n) == expected


def test_numerator_and_denominator_reject_negative_bound():
    with pytest.raises(ValueError):
        series_numerator(-1)
    with pytest.raises(ValueError):
        series_denominator(-1)


def test_bound_zero_series_is_constant_one():
    # numerator equals denominator, so every later coefficient vanishes
    coeffs = series_coeffs(series_numerator(0), series_denominator(0), 12)
    assert coeffs == [1] + [0] * 12


def test_series_coeffs_worked_example():
    assert series_coeffs((1, -1, 2), (1, -4, 4), 4) == [1, 3, 10, 28, 72]


def test_series_coeffs_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_coeffs((1,), (2, 1), 3)
    with pytest.raises(ValueError):
        series_coeffs((1,), (0, 1), 3)


def test_series_coeffs_rejects_negative_kmax():
    with pytest.raises(ValueError):
        series_coeffs((1,), (1,), -1)


def test_series_coeffs_kmax_zero():
    assert series_coeffs((5, 9), (1, 3), 0) == [5]


def test_counts_from_series_divides_by_odd_weights():
    assert counts_from_series([1, 3, 10, 28, 72]) == (1, 1, 2, 4, 8)


def test_counts_from_series_flags_nondivisible_coefficient():
    with pytest.raises(DivisibilityError):
        counts_from_series([1, 4])


@pytest.mark.parametrize(
    "n, kmax, expected",
    [
        (0, 6, (1, 0, 0, 0, 0, 0, 0)),
        (1, 6, (1, 1, 1, 1, 1, 1, 1)),
        (2, 6, (1, 1, 2, 4, 8, 16, 32)),
        (5, 8, (1, 1, 2, 5, 14, 42, 131, 417, 1341)),
    ],
)
def test_count_table_known_rows(n, kmax, expected):
    table = count_table(n, kmax)
    assert table == CountTable(n=n, kmax=kmax, counts=expected)


def test_count_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        count_table(-1, 5)
    with pytest.raises(ValueError):
        count_table(3, -1)


def test_count_table_is_immutable():
    table = count_table(2, 4)
    with pytest.raises(AttributeError):
        table.kmax = 9


@pytest.mark.parametrize("n", range(0, 7))
def test_longer_tables_extend_shorter_ones(n):
    short = count_table(n, 7).counts
    long = count_table(n, 15).counts
    assert long[:8] == short


@pytest.mark.parametrize("n", range(0, 9))
def test_counts_match_transfer_matrix_oracle(n):
    table = count_table(n, 20).counts
    for k in range(21):
        assert table[k] == count_paths_dp(k, n)


@pytest.mark.parametrize("n", range(0, 7))
def test_catalan_ceiling_is_tight_exactly_at_the_bound(n):
    table = count_table(n, 10).counts
    for k in range(11):
        if k <= n:
            assert table[k] == catalan(k)
        else:
            assert table[k] < catalan(k)


@pytest.mark.parametrize("n", range(0, 7))
def test_series_coefficients_carry_odd_divisors(n):
    coeffs = series_coeffs(series_numerator(n), series_denominator(n), 60)
    for k, c in enumerate(coeffs):
        assert c % (2 * k + 1) == 0


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=200))
def test_factor_by_factor_division_equals_one_division_by_the_product(n, kmax):
    # count_table divides by P_{n+2}, P_{n+2} and 1 - 4x in turn; the
    # reference divides once by the expanded (1 - 4x) * P_{n+2}**2
    single = series_coeffs(series_numerator(n), series_denominator(n), kmax)
    assert count_table(n, kmax).counts == counts_from_series(single)


# The smallest n whose P_{n+2} has a coefficient past one 30-bit digit,
# below which count_table divides by P_{n+2} through its coefficients.
FIRST_SWEEP_N = 47


def divisor_factor_counts(n: int, kmax: int) -> tuple[int, ...]:
    """count_table's route with P_{n+2} split as P_d times its cofactor,
    for the least divisor d >= 3 of n+2: P_d divides by the walk sweep,
    the cofactor through its coefficients."""
    m = n + 2
    d = min(d for d in range(3, m + 1) if m % d == 0)
    cofactor = normalize(divide_by_height_poly(height_poly(m), d, len(height_poly(m)) - 1))
    assert mul(height_poly(d), cofactor) == height_poly(m)
    series = series_numerator(n)
    for _ in range(2):
        series = divide_by_height_poly(series, d, kmax)
        series = series_coeffs(series, cofactor, kmax)
    return counts_from_series(series_coeffs(series, (1, -4), kmax))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=FIRST_SWEEP_N, max_value=500), st.integers(min_value=0, max_value=40))
@example(n=497, extra=0)  # n + 2 = 499 is prime, node n is odd: no cofactor
@example(n=498, extra=3)  # n + 2 = 500 = 2^2 * 5^3, node n is even
@example(n=FIRST_SWEEP_N, extra=0)  # n + 2 = 49 = 7^2
def test_divisor_factor_division_equals_one_division_by_the_product(n, extra):
    # n >= FIRST_SWEEP_N, so count_table divides by the walk sweep
    kmax = (n + 1) // 2 + extra
    single = series_coeffs(series_numerator(n), series_denominator(n), kmax)
    assert count_table(n, kmax).counts == counts_from_series(single)
    assert divisor_factor_counts(n, kmax) == counts_from_series(single)


class Swept(Exception):
    pass


class Whole(Exception):
    pass


@pytest.mark.parametrize(
    "n, kmax, sweeps",
    [(1000, 2000, True), (100, 4000, True), (998, 500, True)]
    + [(n, kmax, False) for n in range(0, 41) for kmax in (300, 2000)]
    # deg P_{n+2} past kmax does not matter, on either side of n = 47
    + [(2000, 300, True), (2000, 999, True), (1000, 100, True), (200, 50, True)]
    + [(FIRST_SWEEP_N - 1, 3, False), (10, 2, False)]
    + [
        (0, 5, False),
        (FIRST_SWEEP_N - 1, 2000, False),  # every coefficient fits one digit
        (FIRST_SWEEP_N, 2000, True),
        (FIRST_SWEEP_N, 23, True),  # kmax just under deg P_49 = 24
        (FIRST_SWEEP_N, 24, True),
        (2000, 1000, True),
    ],
)
def test_division_groups_shape(n, kmax, sweeps, monkeypatch):
    # count_table divides by P_{n+2} through its coefficients when every
    # one fits one digit (n < FIRST_SWEEP_N), and by the walk sweep
    # otherwise, whatever kmax is; the first division tells the route
    def sweep(series, m, kmax):
        raise Swept

    def whole(num, den, kmax):
        raise Whole

    monkeypatch.setattr(genfunc, "divide_by_height_poly", sweep)
    monkeypatch.setattr(genfunc, "series_coeffs", whole)
    with pytest.raises(Swept if sweeps else Whole):
        count_table(n, kmax)
