"""Absorbing-walk module: exact rational routes and the simulator."""

import errno
import os
import signal
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dyckwalk import genfunc, walk
from dyckwalk.heightpoly import power_diff_ratio
from dyckwalk.walk import (
    WalkConfig,
    conditional_hit_time,
    hit_probability,
    simulate,
)

from references import path_series_closed, renewal_identity_holds

PROBABILITY_GRID = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 4), Fraction(3, 7)]

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@pytest.mark.parametrize("p", PROBABILITY_GRID)
def test_two_node_walk_hits_right_with_probability_p(p):
    assert hit_probability(2, p) == p
    assert conditional_hit_time(2, p) == 1
    assert path_series_closed(2, p) == 1


def test_exact_values_at_one_third():
    p = Fraction(1, 3)
    assert hit_probability(3, p) == Fraction(3, 7)
    assert conditional_hit_time(3, p) == Fraction(11, 7)
    assert path_series_closed(3, p) == Fraction(99, 49)
    assert hit_probability(3, p) * conditional_hit_time(3, p) == Fraction(33, 49)


def renewal_recurrence(m, p):
    """T_m from T_2 = 1 by T_i = r_i + T_{i-1} * (r_i - 1), r_i = power_diff_ratio(i, p)."""
    t = Fraction(1)
    for i in range(3, m + 1):
        r = power_diff_ratio(i, p)
        t = r + t * (r - 1)
    return t


@pytest.mark.parametrize(
    "p", [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(4, 7), Fraction(3, 5), Fraction(7, 9)]
)
def test_closed_form_hit_time_equals_the_renewal_recurrence(p):
    for m in range(2, 61):
        assert conditional_hit_time(m, p) == renewal_recurrence(m, p), m


def test_exact_values_at_two_fifths():
    assert conditional_hit_time(3, Fraction(2, 5)) == Fraction(31, 19)


def test_monte_carlo_reference_targets():
    assert hit_probability(4, Fraction(3, 10)) == Fraction(237, 580)
    assert conditional_hit_time(4, Fraction(3, 10)) == Fraction(4391, 2291)
    assert hit_probability(5, Fraction(2, 5)) == Fraction(130, 211)
    assert conditional_hit_time(5, Fraction(2, 5)) == Fraction(7507, 2743)


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("p", PROBABILITY_GRID)
def test_product_of_probability_and_time_matches_series(m, p):
    lhs = hit_probability(m, p) * conditional_hit_time(m, p)
    assert lhs == p * path_series_closed(m, p)


@pytest.mark.parametrize("m", range(3, 13))
@pytest.mark.parametrize("p", PROBABILITY_GRID)
def test_renewal_identity_holds_on_grid(m, p):
    assert renewal_identity_holds(m, p)


def test_renewal_identity_worked_example():
    # both sides equal 33/49 at m = 3, p = 1/3
    p = Fraction(1, 3)
    product = hit_probability(3, p) * conditional_hit_time(3, p)
    restart = p + (hit_probability(3, p) - p) * (
        1 + conditional_hit_time(2, p) + conditional_hit_time(3, p)
    )
    assert product == restart == Fraction(33, 49)


def test_renewal_identity_needs_three_nodes():
    with pytest.raises(ValueError):
        renewal_identity_holds(2, Fraction(1, 3))


@pytest.mark.parametrize("fn", [hit_probability, conditional_hit_time, path_series_closed])
def test_exact_routes_reject_bad_arguments(fn):
    with pytest.raises(ValueError):
        fn(1, Fraction(1, 3))
    with pytest.raises(ValueError):
        fn(4, Fraction(1, 2))
    with pytest.raises(ValueError):
        fn(4, Fraction(0))


def test_partial_sums_of_the_series_approach_the_closed_value():
    # order-by-order weighted counts, evaluated at x = p(1-p), against the closed form
    from dyckwalk.genfunc import count_table

    m, p = 3, Fraction(1, 3)
    x = p * (1 - p)
    counts = count_table(m - 2, 60).counts
    acc = Fraction(0)
    for k in range(60, -1, -1):
        acc = acc * x + (2 * k + 1) * counts[k]
    closed = path_series_closed(m, p)
    assert abs(acc - closed) < Fraction(1, 10**9) * closed


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=1, p=0.3, trials=10, seed=0),
        dict(m=4, p=0.0, trials=10, seed=0),
        dict(m=4, p=1.0, trials=10, seed=0),
        dict(m=4, p=Fraction(3, 2), trials=10, seed=0),
        dict(m=4, p=0.3, trials=0, seed=0),
        dict(m=4, p=0.3, trials=10, seed=0, max_steps=0),
        # past the float range: refused as outside (0, 1), not by an overflow
        dict(m=3, p=Fraction(10 ** 400, 3), trials=1, seed=0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        WalkConfig(**kwargs)


def test_two_node_simulation_hits_in_exactly_one_step():
    stats = simulate(WalkConfig(m=2, p=0.3, trials=1000, seed=1))
    assert stats.trials_run == 1000
    assert stats.hits_right + stats.hits_left == 1000
    assert stats.truncated == 0
    assert stats.mean_hit_len == 1.0
    assert stats.mean_hit_len_se == 0.0


def test_same_seed_reproduces_the_run():
    cfg = WalkConfig(m=4, p=Fraction(3, 10), trials=50_000, seed=99)
    assert simulate(cfg) == simulate(cfg)


def test_fair_coin_simulation_runs():
    stats = simulate(WalkConfig(m=4, p=0.5, trials=20_000, seed=5))
    assert stats.truncated == 0
    assert 0.0 < stats.hit_prob < 1.0


def test_estimates_track_exact_values():
    cfg = WalkConfig(m=4, p=Fraction(3, 10), trials=200_000, seed=42)
    stats = simulate(cfg)
    exact_prob = float(hit_probability(4, Fraction(3, 10)))
    exact_len = float(conditional_hit_time(4, Fraction(3, 10)))
    assert abs(stats.hit_prob - exact_prob) <= 5 * stats.hit_prob_se
    assert abs(stats.mean_hit_len - exact_len) <= 5 * stats.mean_hit_len_se


def test_tiny_step_cap_reports_truncations():
    stats = simulate(WalkConfig(m=5, p=0.5, trials=1000, seed=3, max_steps=3))
    assert stats.truncated > 0
    assert stats.trials_run == 1000
    assert stats.hits_right + stats.hits_left + stats.truncated == 1000


@settings(max_examples=500)
@given(
    p=st.floats(0, 1, exclude_min=True, exclude_max=True),
    d=st.integers(0, 2**64 - 1),
    offset=st.integers(-2**12, 2**12),
)
@example(p=5e-324, d=0, offset=0)  # the least positive float
@example(p=2.0**-53, d=0, offset=0)
@example(p=1 - 2.0**-53, d=2**64 - 1, offset=0)  # the greatest float below 1
@example(p=0.5, d=2**63, offset=0)
@example(p=0.1, d=0, offset=0)  # p * 2**53 is not an integer
def test_the_integer_step_test_is_the_float_one(p, d, offset):
    below = walk._right_step_bound(p)
    assert 0 < below < 2**64  # a uint64, as the simulator compares it
    for draw in (d, below - 1, below, below + offset):
        draw = min(max(draw, 0), 2**64 - 1)
        assert (draw < below) == ((draw >> 11) * 2.0**-53 < p), draw


def lockstep_reference(cfg):
    """The simulator one step per loop iteration: _estimate's arguments.

    They are (trials, truncated, successes), where successes counts the
    right-absorbed trials by walk length.

    Trial t (1-based here) draws from splitmix64 started at
    seed + t * 0xD1B54A32D192ED03 (mod 2**64), adding 0x9E3779B97F4A7C15
    before each draw, and steps right when the top 53 bits, scaled to
    [0, 1), fall below float(p).
    """
    u64 = np.uint64
    states = u64(cfg.seed % 2**64) + np.arange(1, cfg.trials + 1, dtype=u64) * u64(0xD1B54A32D192ED03)
    pos = np.full(cfg.trials, cfg.m - 1, dtype=np.int64)
    successes = Counter()
    step = 0
    while pos.size and step < cfg.max_steps:
        step += 1
        states = states + u64(0x9E3779B97F4A7C15)
        z = (states ^ (states >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        z = z ^ (z >> u64(31))
        pos = pos + np.where((z >> u64(11)) * 2.0 ** -53 < float(cfg.p), 1, -1)
        right = pos == cfg.m
        if n_right := int(right.sum()):
            successes[step] = n_right
        keep = ~(right | (pos == 0))
        pos, states = pos[keep], states[keep]
    return cfg.trials, int(pos.size), successes


def bits(stats):
    """Every field, floats by repr, so NaN equals NaN and -0.0 differs from 0.0."""
    fields = [getattr(stats, name) for name in walk.WalkStats.__dataclass_fields__]
    assert all(type(v) is int for v in fields[:4])
    return [repr(v) for v in fields]


def walk_configs(max_trials):
    return st.builds(
        WalkConfig,
        m=st.integers(2, 60),
        p=st.one_of(
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000),
        ),
        trials=st.integers(1, max_trials),
        seed=st.integers(),
        max_steps=st.integers(1, 2000),
    )


@needs_fork
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "budget, pool",
    [
        pytest.param(budget, pool, id=str(budget) if pool == walk._POOL else f"{budget}-pool{pool}")
        for budget in (1, walk._DRAW_BUDGET, 1 << 20)
        for pool in (1, 3, walk._POOL)
    ],
)
# the fixture's patches hold for every example, and its count is cleared
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_block_stepping_matches_the_lockstep_reference(forks, budget, pool, data):
    # With a pool of one or three, a new group starts every trial or two,
    # so 60 pools of trials already cross dozens of admission seams; more
    # trials would only make the one-step passes of budget 1 slow.  A run
    # of more than one pool splits in two at the gate the fixture opens, so
    # with those pools the seam between the halves is checked as well.
    cfg = data.draw(walk_configs(min(3000, 60 * pool)))
    forks.clear()
    with (
        mock.patch.object(walk, "_DRAW_BUDGET", budget),
        mock.patch.object(walk, "_POOL", pool),
        mock.patch.object(walk, "_estimate", wraps=walk._estimate) as estimate,
    ):
        stats = simulate(cfg)
    assert len(forks) == (cfg.trials > pool)
    expected = lockstep_reference(cfg)
    # The whole success histogram, not only the sums WalkStats reads from it:
    # lengths {1, 9, 11} and {3, 5, 13} have the same count, sum and squares.
    assert estimate.call_args.args == expected
    assert bits(stats) == bits(walk._estimate(*expected))


GOLDEN_RUNS = [
    (WalkConfig(m=150, p=0.5, trials=4000, seed=1001), (3975, 25, 0, "104.1577358490566")),
    (WalkConfig(m=2000, p=Fraction(2, 5), trials=200, seed=1), (119, 81, 0, "3.7899159663865545")),
    (
        WalkConfig(m=40, p=0.5, trials=3000, seed=11, max_steps=900),
        (2923, 64, 13, "20.913787204926447"),
    ),
    # a run of many pools, so of many admitted groups
    (WalkConfig(m=3, p=Fraction(1, 3), trials=10**6, seed=42), (428513, 571487, 0, "1.5731728092263246")),
    # the second bulk regime, across several admissions
    (WalkConfig(m=8, p=Fraction(2, 5), trials=2**18, seed=8), (171430, 90714, 0, "3.900484162631978")),
]


@pytest.mark.parametrize("cfg, expected", GOLDEN_RUNS)
def test_golden_runs(cfg, expected):
    stats = simulate(cfg)
    assert (stats.hits_right, stats.hits_left, stats.truncated, repr(stats.mean_hit_len)) == expected


def traced_peak(cfg):
    """The peak of this process's traced memory in simulate(cfg); numpy
    reports its buffers to tracemalloc, and a forked child's are its own."""
    tracemalloc.start()
    try:
        simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_fork
def test_memory_does_not_grow_with_trials(forks):
    # Each bound is on one process.  With the gate shut, this one runs all
    # 4 pools of trials; open, it runs the lower 4 pools of 8 and adds the
    # child's histogram, while the child runs the upper 4 by the same code.
    def peak(trials):
        return traced_peak(WalkConfig(m=3, p=Fraction(1, 3), trials=trials, seed=1))

    one_pool = peak(walk._POOL)
    with mock.patch.object(genfunc, "_second_cpu", lambda: False):
        assert peak(4 * walk._POOL) <= 1.25 * one_pool
    assert forks == []
    assert peak(8 * walk._POOL) <= 1.25 * one_pool
    assert forks == [1]


@needs_fork
def test_footprint_is_a_few_pool_sized_arrays(forks):
    # The pass works in buffers made once per call (four of _POOL 64-bit
    # words, three small ones) and frees each index array once it is used;
    # the peak, 5.38 arrays of _POOL int64s, comes at the first admission.
    # The bound is on this process: all of the trials with the gate shut,
    # the lower half of them with it open.
    cfg = WalkConfig(m=3, p=Fraction(1, 3), trials=4 * walk._POOL, seed=1)
    with mock.patch.object(genfunc, "_second_cpu", lambda: False):
        assert traced_peak(cfg) <= 5.5 * 8 * walk._POOL
    assert traced_peak(cfg) <= 5.5 * 8 * walk._POOL
    assert forks == [1]


@needs_fork
@pytest.mark.parametrize(
    "cfg",
    [
        *(cfg for cfg, _ in GOLDEN_RUNS if cfg.trials > walk._POOL),
        # an odd count, so halves of unequal size, with truncated trials in both
        WalkConfig(m=5, p=Fraction(2, 5), trials=2 * walk._POOL + 1, seed=7, max_steps=20),
    ],
    ids=["m3", "m8", "odd"],
)
def test_a_split_run_gives_estimate_what_one_process_gives(forks, cfg):
    with mock.patch.object(walk, "_estimate", wraps=walk._estimate) as estimate:
        with mock.patch.object(genfunc, "_second_cpu", lambda: False):
            whole = simulate(cfg)
        assert forks == []
        split = simulate(cfg)
        assert forks == [1]
    one, two = (call.args for call in estimate.call_args_list)
    # the whole histogram, not only the WalkStats read from it
    assert one == two
    assert bits(whole) == bits(split)


def after_the_first_term(fault):
    """An upper half whose child meets `fault` once it has written the
    truncated count, before any (length, count) pair."""
    outcome = walk._outcome

    def faulty(cfg, first, last):
        terms = outcome(cfg, first, last)
        yield next(terms)
        fault()
        yield from terms

    return faulty


def raise_in_child():
    raise RuntimeError("injected fault in the walk's upper half")


def die_in_child():
    os.kill(os.getpid(), signal.SIGKILL)


def exit_well_in_child():
    os._exit(0)


# each fault, and the child's wait status; none writes the stream's end
CHILD_FAULTS = [
    pytest.param(raise_in_child, 1 << 8, id="raises"),
    pytest.param(die_in_child, signal.SIGKILL, id="killed"),
    pytest.param(exit_well_in_child, 0, id="exits-0"),
]


@needs_fork
@pytest.mark.parametrize("fault, status", CHILD_FAULTS)
def test_a_failed_walk_child_is_a_child_process_error(forks, monkeypatch, fault, status):
    monkeypatch.setattr(walk, "_outcome", after_the_first_term(fault))
    message = f"the walk's child process ended with wait status {status} after writing a stream cut short"
    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        simulate(WalkConfig(m=3, p=Fraction(1, 3), trials=walk._POOL + 1, seed=1))
    assert forks == [1]


# a call of each that fails as it would with no descriptor or process to spare
FAILURES = {
    "pipe": OSError(errno.EMFILE, "Too many open files"),
    "fork": BlockingIOError(errno.EAGAIN, "no process to spare"),
}


@needs_fork
@pytest.mark.parametrize("call", FAILURES)
def test_a_pipe_or_fork_that_fails_runs_the_walk_in_this_process(forks, monkeypatch, call):
    def fail():
        forks.append(call)
        raise FAILURES[call]

    cfg = WalkConfig(m=8, p=Fraction(2, 5), trials=2 * walk._POOL + 1, seed=3)
    with mock.patch.object(genfunc, "_second_cpu", lambda: False):
        whole = simulate(cfg)
    monkeypatch.setattr(os, call, fail)
    with mock.patch.object(walk, "_run", wraps=walk._run) as run:
        assert bits(simulate(cfg)) == bits(whole)
    # one _run over every trial, and no child
    assert run.call_args_list == [mock.call(cfg, 0, cfg.trials)]
    assert forks == [call]


@needs_fork
def test_a_lower_half_that_raises_kills_and_reaps_the_child(forks, monkeypatch):
    # the child is still walking when this process gives up; the autouse
    # fixture of conftest.py fails the test if it is left unreaped
    run, parent = walk._run, os.getpid()

    def lower_half_fails(cfg, first, last):
        if os.getpid() == parent:
            raise AssertionError("even-length success at step 2")
        return run(cfg, first, last)

    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(walk, "_run", lower_half_fails)
    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(AssertionError, match="even-length success at step 2"):
        simulate(WalkConfig(m=1000, p=0.5, trials=4 * walk._POOL, seed=1))
    assert forks == [1]
    assert statuses == [signal.SIGKILL]  # killed, not waited out


class _RightEndMovesOut:
    """A config whose right end reads 3 at the start and 4 afterwards.

    Walks then start at 2 and succeed only in an even number of steps,
    which no real configuration can produce.
    """

    p, trials, seed, max_steps = 0.9, 100, 1, 1000

    def __init__(self):
        self.reads = 0

    @property
    def m(self):
        self.reads += 1
        return 3 if self.reads == 1 else 4


@pytest.mark.parametrize("budget", [1, walk._DRAW_BUDGET])
def test_even_length_success_is_a_defect(budget):
    with mock.patch.object(walk, "_DRAW_BUDGET", budget):
        with pytest.raises(AssertionError, match="even-length success at step 2"):
            simulate(_RightEndMovesOut())


@needs_fork
def test_even_length_success_of_a_split_run_is_a_defect(forks):
    # the check runs once, on the sum of the two halves' histograms
    with mock.patch.object(walk, "_POOL", 10):
        with pytest.raises(AssertionError, match="even-length success at step 2"):
            simulate(_RightEndMovesOut())
    assert forks == [1]
