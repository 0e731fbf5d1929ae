"""Independent counting oracles: brute force, transfer DP, convergents."""

import ast
import math
import operator
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckwalk import genfunc, heightpoly, oracle, poly
from dyckwalk.genfunc import count_table
from dyckwalk.heightpoly import height_poly
from dyckwalk.oracle import (
    BRUTEFORCE_MAX_ORDER,
    _maxima_histograms,
    _wallis_denominators,
    catalan,
    contfrac_rows,
    count_by_contfrac,
    count_paths_bruteforce,
    count_paths_dp,
    count_row_dp,
)


def recursive_histograms(k):
    """Reference for _maxima_histograms: one recursive walk over all 2k steps.

    Returns (by_height, by_peak), indexed by a path's maximum node height
    and by the height of its highest peak (0 for the empty path).
    """
    by_height = [0] * (k + 1)
    by_peak = [0] * (k + 1)
    if k == 0:
        by_height[0] = by_peak[0] = 1
        return tuple(by_height), tuple(by_peak)
    steps = 2 * k

    def descend(pos, h, maxh, maxpeak, last_up):
        if pos == steps:
            by_height[maxh] += 1
            by_peak[maxpeak] += 1
            return
        rem = steps - pos
        # up step, unless the walk could no longer return to zero
        if h + 1 <= rem - 1:
            descend(pos + 1, h + 1, max(maxh, h + 1), maxpeak, True)
        # down step; an up step immediately before makes node h a peak
        if h > 0:
            descend(pos + 1, h - 1, maxh, max(maxpeak, h) if last_up else maxpeak, False)

    descend(0, 0, 0, 0, False)
    return tuple(by_height), tuple(by_peak)


def reference_contfrac_rows(n_max, kmax):
    """Reference for contfrac_rows: each convergent by inverting a dense series.

    G_0 = 1 and G_h = 1 / (1 - z * G_{h-1}), where 1 - z * G_{h-1} has
    constant term 1 and coefficient -G_{h-1}[j-1] at z**j, so the inverse
    is inv[k] = sum over j = 1..k of G_{h-1}[j-1] * inv[k-j]:
    O(kmax**2) multiply-adds per row.
    """
    conv = [1] + [0] * kmax
    yield conv
    for _ in range(n_max):
        inv = [1]
        for k in range(1, kmax + 1):
            inv.append(sum(map(operator.mul, conv[:k], reversed(inv))))
        conv = inv
        yield conv


def reflection_count(n, k):
    """A(n, k) by the reflection principle (de Bruijn, Knuth and Rice 1972):
    the sum over all integers j of C(2k, k + j(n+2)) - C(2k, k + j(n+2) + 1)."""

    def binom(i):
        return math.comb(2 * k, i) if 0 <= i <= 2 * k else 0

    period = n + 2
    reach = k // period + 1
    return sum(
        binom(k + j * period) - binom(k + j * period + 1) for j in range(-reach, reach + 1)
    )


def test_catalan_values():
    assert [catalan(k) for k in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_rejects_negative_order():
    with pytest.raises(ValueError):
        catalan(-1)


@pytest.mark.parametrize(
    "k, n, expected",
    [(0, 0, 1), (1, 0, 0), (3, 1, 1), (3, 2, 4), (4, 2, 8), (5, 5, 42)],
)
def test_bruteforce_known_counts(k, n, expected):
    assert count_paths_bruteforce(k, n) == expected


def test_bruteforce_guard_refuses_large_orders():
    with pytest.raises(ValueError):
        count_paths_bruteforce(BRUTEFORCE_MAX_ORDER + 1, 3)


def test_bruteforce_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_paths_bruteforce(-1, 3)
    with pytest.raises(ValueError):
        count_paths_bruteforce(3, -1)


@pytest.mark.parametrize("k", range(0, BRUTEFORCE_MAX_ORDER + 1))
def test_bruteforce_saturates_to_catalan(k):
    assert count_paths_bruteforce(k, k) == catalan(k)
    assert count_paths_bruteforce(k, k + 5) == catalan(k)


@pytest.mark.parametrize(
    "k, n, expected",
    [(6, 2, 32), (12, 12, 208012), (0, 7, 1), (2, 0, 0)],
)
def test_dp_known_counts(k, n, expected):
    assert count_paths_dp(k, n) == expected


def test_dp_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_paths_dp(-2, 1)
    with pytest.raises(ValueError):
        count_paths_dp(1, -2)


def test_contfrac_known_rows():
    assert count_by_contfrac(2, 6) == [1, 1, 2, 4, 8, 16, 32]
    assert count_by_contfrac(0, 4) == [1, 0, 0, 0, 0]
    assert count_by_contfrac(1, 5) == [1, 1, 1, 1, 1, 1]


def test_contfrac_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_by_contfrac(-1, 4)
    with pytest.raises(ValueError):
        count_by_contfrac(4, -1)


@pytest.mark.parametrize("n", range(0, BRUTEFORCE_MAX_ORDER + 1))
def test_three_oracles_agree(n):
    convergent = count_by_contfrac(n, BRUTEFORCE_MAX_ORDER)
    for k in range(BRUTEFORCE_MAX_ORDER + 1):
        dp = count_paths_dp(k, n)
        assert dp == convergent[k]
        assert dp == count_paths_bruteforce(k, n)


@pytest.mark.parametrize("k", range(0, 13))
def test_counts_grow_with_the_height_bound(k):
    previous = 0
    for n in range(0, 10):
        current = count_paths_dp(k, n)
        assert current >= previous
        previous = current
    if k <= 9:
        assert previous == catalan(k)
    else:
        assert previous < catalan(k)


@pytest.mark.parametrize("k", range(0, 13))
def test_split_enumeration_matches_the_recursive_one(k):
    assert _maxima_histograms(k) == recursive_histograms(k)
    # every path counted once in each histogram
    assert sum(_maxima_histograms(k)[0]) == sum(_maxima_histograms(k)[1]) == catalan(k)


def test_reflection_reference_on_known_rows():
    assert [reflection_count(0, k) for k in range(5)] == [1, 0, 0, 0, 0]
    assert [reflection_count(2, k) for k in range(7)] == [1, 1, 2, 4, 8, 16, 32]
    assert [reflection_count(k, k) for k in range(10)] == [catalan(k) for k in range(10)]


def test_dp_row_reads_every_order_from_one_pass():
    assert count_row_dp(2, 6) == [1, 1, 2, 4, 8, 16, 32]
    assert count_row_dp(0, 3) == [1, 0, 0, 0]
    assert count_row_dp(5, 0) == [1]
    with pytest.raises(ValueError):
        count_row_dp(-1, 3)
    with pytest.raises(ValueError):
        count_row_dp(3, -1)


def test_contfrac_sweep_yields_each_convergent_in_turn():
    rows = list(contfrac_rows(3, 5))
    assert rows == [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 1, 2, 4, 8, 16],
        [1, 1, 2, 5, 13, 34],
    ]
    assert len({id(row) for row in rows}) == len(rows)  # no row is reused


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=200))
def test_counting_routes_agree_cell_by_cell(n, kmax):
    dp = count_row_dp(n, kmax)
    *_, convergent = contfrac_rows(n, kmax)
    series = count_table(n, kmax).counts
    assert len(dp) == len(convergent) == len(series) == kmax + 1
    for k in range(kmax + 1):
        expected = reflection_count(n, k)
        assert dp[k] == convergent[k] == series[k] == expected, (n, k)
        if k <= 12:
            assert count_paths_bruteforce(k, n) == expected, (n, k)


@st.composite
def swept_cells(draw):
    # min(n, kmax) >= 47: count_table divides by the walk sweep
    n = draw(st.integers(min_value=47, max_value=800))
    return n, draw(st.integers(min_value=47, max_value=400))


@settings(max_examples=10, deadline=None)
@given(swept_cells())
@example((795, 400))  # n + 2 = 797 is prime
@example((799, 399))  # n above kmax: the sweep divides by P_401
def test_sweep_route_agrees_with_the_dp_and_the_convergent(cell):
    n, kmax = cell
    series = list(count_table(n, kmax).counts)
    assert series == count_row_dp(n, kmax)
    assert series == next(contfrac_rows(n, kmax, n_min=n))


def test_contfrac_rows_from_n_min_are_the_tail_of_the_sweep():
    assert list(contfrac_rows(6, 9, n_min=4)) == list(contfrac_rows(6, 9))[4:]
    assert list(contfrac_rows(6, 9, n_min=7)) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=200))
def test_convergents_match_the_dense_inversion(n_max, kmax):
    assert list(contfrac_rows(n_max, kmax)) == list(reference_contfrac_rows(n_max, kmax))


def test_wallis_denominators_are_the_height_polynomials():
    # D_h = D_{h-1} - z * D_{h-2} from D_{-1} = D_0 = 1 is P_{h+2}
    for h, den in enumerate(_wallis_denominators(200)):
        assert tuple(den) == height_poly(h + 2), h
    assert h == 200


def imported_modules(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            # `from . import genfunc` names the module in the alias
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


def test_oracle_imports_nothing_from_the_routes_it_checks():
    # and the other way round: the walk sweep in heightpoly walks the same
    # path graph as the DP, so neither side may borrow from the other
    forbidden = {"heightpoly", "genfunc", "poly"}
    for name in imported_modules(oracle):
        assert not forbidden & set(name.lstrip(".").split(".")), name
    for module in (genfunc, heightpoly, poly):
        for name in imported_modules(module):
            assert "oracle" not in name.lstrip(".").split("."), (module.__name__, name)
