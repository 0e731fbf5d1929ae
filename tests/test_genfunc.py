"""Closed-form series extraction and the exact count table."""

import errno
import os
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
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
from dyckwalk.heightpoly import divide_by_height_poly, height_poly, sweep_height_poly
from dyckwalk.oracle import catalan, count_paths_dp, count_row_dp
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


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=10 ** 400))
@example(kmax=0, extra=0)
@example(kmax=FIRST_SWEEP_N - 1, extra=1)
@example(kmax=FIRST_SWEEP_N, extra=10 ** 400 - FIRST_SWEEP_N)
def test_a_bound_at_or_above_kmax_does_not_bind(kmax, extra):
    # no path of order k <= kmax rises above kmax, so every count is a
    # Catalan number, and no P_i past the numerator's at n = kmax is built
    def built(m):
        assert m <= 2 * kmax + 3, f"built P_{m} for kmax {kmax}"
        return height_poly(m)

    n = kmax + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genfunc, "height_poly", built)
        table = count_table(n, kmax)
    assert table == CountTable(n, kmax, count_table(kmax, kmax).counts)
    assert table.counts == tuple(catalan(k) for k in range(kmax + 1))


class Swept(Exception):
    pass


class Whole(Exception):
    pass


@pytest.mark.parametrize(
    "n, kmax, sweeps",
    [(1000, 2000, True), (100, 4000, True), (998, 500, True)]
    + [(n, kmax, False) for n in range(0, 41) for kmax in (300, 2000)]
    # n above kmax divides at kmax, on either side of kmax = 47
    + [(2000, 300, True), (2000, 999, True), (1000, 100, True), (200, 50, True)]
    + [(2000, FIRST_SWEEP_N, True), (2000, FIRST_SWEEP_N - 1, False)]
    + [(FIRST_SWEEP_N - 1, 3, False), (10, 2, False)]
    + [
        (0, 5, False),
        (FIRST_SWEEP_N - 1, 2000, False),  # every coefficient fits one digit
        (FIRST_SWEEP_N, 2000, True),
        (FIRST_SWEEP_N, 23, False),  # the bound of 47 does not bind at k <= 23
        (FIRST_SWEEP_N, 24, False),
        (2000, 1000, True),
    ],
)
def test_division_groups_shape(n, kmax, sweeps, monkeypatch):
    # count_table works at h = min(n, kmax), and divides by P_{h+2}
    # through its coefficients when every one fits one digit
    # (h < FIRST_SWEEP_N), and by the walk sweep otherwise; the first
    # division tells the route
    def sweep(series, m, kmax):
        raise Swept

    def whole(num, den, kmax):
        raise Whole

    monkeypatch.setattr(genfunc, "divide_by_height_poly", sweep)
    monkeypatch.setattr(genfunc, "series_coeffs", whole)
    with pytest.raises(Swept if sweeps else Whole):
        count_table(n, kmax)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def swept_twice_counts(n: int, kmax: int) -> tuple[int, ...]:
    """count_table's route with both sweeps in this process, one after the other."""
    series = divide_by_height_poly(series_numerator(n), n + 2, kmax)
    series = divide_by_height_poly(series, n + 2, kmax)
    return counts_from_series(series_coeffs(series, (1, -4), kmax))


@needs_fork
# the fixture's patches hold for every example, and its count is cleared
@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
# min(n, kmax) >= FIRST_SWEEP_N: the row divides by the walk sweep
@given(
    st.integers(min_value=FIRST_SWEEP_N, max_value=400),
    st.integers(min_value=FIRST_SWEEP_N, max_value=400),
)
@example(n=FIRST_SWEEP_N, kmax=FIRST_SWEEP_N)
@example(n=400, kmax=FIRST_SWEEP_N)
@example(n=399, kmax=150)  # n > kmax: the sweeps run at kmax
@example(n=300, kmax=300)  # n >= kmax: every count is a Catalan number
@example(n=60, kmax=400)
def test_pipelined_sweeps_equal_the_sweeps_in_turn(forks, n, kmax):
    forks.clear()
    counts = count_table(n, kmax).counts
    assert forks == [1]
    assert counts == swept_twice_counts(n, kmax)
    assert list(counts) == count_row_dp(n, kmax)


def no_descriptor_to_spare():
    raise OSError(errno.EMFILE, "Too many open files")


def no_pipe_on_one_cpu():
    raise AssertionError("piped on one CPU")


@pytest.mark.parametrize(
    "n, kmax, cpus, pipe",
    [
        pytest.param(FIRST_SWEEP_N, FIRST_SWEEP_N, {0}, no_pipe_on_one_cpu, id="47-47"),
        pytest.param(100, 60, {0}, no_pipe_on_one_cpu, id="100-60"),
        pytest.param(1000, 2000, {0}, no_pipe_on_one_cpu, id="1000-2000"),
        # two CPUs, but no descriptor for the pipe: run as on one CPU
        pytest.param(1000, 2000, {0, 1}, no_descriptor_to_spare, id="1000-2000-no-pipe"),
    ],
)
def test_one_cpu_runs_the_same_chain_in_this_process(monkeypatch, n, kmax, cpus, pipe):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(genfunc, "PIPELINE_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert count_table(n, kmax).counts == swept_twice_counts(n, kmax)


@pytest.mark.parametrize(
    "n, kmax, no_pipe",
    [
        pytest.param(FIRST_SWEEP_N, FIRST_SWEEP_N, False, id="47-47"),
        pytest.param(100, 60, False, id="100-60"),
        pytest.param(100, 60, True, id="100-60-no-pipe"),
    ],
)
def test_a_fork_that_fails_leaves_the_chain_in_this_process(forks, monkeypatch, n, kmax, no_pipe):
    def fail():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    pipe, made = os.pipe, []

    def recorded():
        fds = pipe()
        made.extend(fds)
        return fds

    monkeypatch.setattr(os, "fork", fail)
    monkeypatch.setattr(os, "pipe", no_descriptor_to_spare if no_pipe else recorded)
    assert count_table(n, kmax).counts == swept_twice_counts(n, kmax)
    assert forks == ([] if no_pipe else [1])
    for fd in made:  # the pipe of a fork that failed is closed
        with pytest.raises(OSError):
            os.fstat(fd)


def test_rows_below_the_gate_do_not_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked below the gate")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    # verify --n-max 100 --k-max 1000's rows stay in this process, and so
    # do sweep rows with n above a small kmax
    for n, kmax in [(FIRST_SWEEP_N, FIRST_SWEEP_N), (100, 50), (100, 1000), (2000, 100)]:
        assert FIRST_SWEEP_N <= min(n, kmax)
        assert kmax * min(kmax, n) < genfunc.PIPELINE_MIN_WORK
        assert count_table(n, kmax).counts == swept_twice_counts(n, kmax)


def faulty_sweep(fault, at):
    """A first sweep that yields its true terms up to term `at`, or all of
    them if `at` is None, then meets `fault`; it runs only in the child,
    since the gate is open."""

    def sweep(series, m, kmax):
        terms = sweep_height_poly(series, m, kmax)

        def run():
            for k, term in enumerate(terms):
                if k == at:
                    fault()
                yield term
            fault()

        return run()

    return sweep


def raise_in_child():
    raise RuntimeError("injected fault in the sweep")


def die_in_child():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
@pytest.mark.parametrize(
    "fault, status",
    [(raise_in_child, 1 << 8), (die_in_child, signal.SIGKILL)],
    ids=["raises", "killed"],
)
# at term 3, or after the last term, with every term written
@pytest.mark.parametrize("at", [3, None], ids=["midway", "at-the-end"])
def test_a_failed_child_is_a_child_process_error(forks, monkeypatch, fault, status, at):
    monkeypatch.setattr(genfunc, "sweep_height_poly", faulty_sweep(fault, at))
    with pytest.raises(ChildProcessError, match=f"wait status {status}\\b"):
        count_table(100, 60)
    assert forks == [1]


@needs_fork
@pytest.mark.parametrize("extra", [-1, 1])
def test_a_child_that_writes_other_than_kmax_plus_one_terms_is_an_error(forks, monkeypatch, extra):
    def sweep(series, m, kmax):
        return iter(range(kmax + 1 + extra))

    monkeypatch.setattr(genfunc, "sweep_height_poly", sweep)
    with pytest.raises(ChildProcessError, match="wait status 0 after writing other than 61 terms"):
        count_table(100, 60)
    assert forks == [1]


@needs_fork
def test_a_second_division_that_raises_kills_and_reaps_the_child(forks, monkeypatch):
    # the child is still sweeping when the parent gives up; the autouse
    # fixture of conftest.py fails the test if it is left unreaped
    def second(series, m, kmax):
        next(iter(series))
        raise KeyError("second division")

    monkeypatch.setattr(genfunc, "divide_by_height_poly", second)
    with pytest.raises(KeyError):
        count_table(1000, 2000)
    assert forks == [1]
