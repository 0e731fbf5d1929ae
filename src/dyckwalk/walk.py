"""Absorbing random walk on 0..m: exact formulas and Monte Carlo.

The walk starts at node m-1, steps right with probability p and left
with probability 1-p, and stops on hitting either absorbing end, 0 or
m.  Two exact quantities are computed for p in (0, 1), p != 1/2:

  * hit_probability(m, p)       -- chance of absorption at m rather
                                   than 0 (the classic ruin formula).
  * conditional_hit_time(m, p)  -- expected number of steps to reach m,
                                   conditional on never hitting 0.

Every successful walk has odd length 2k+1 (one more right step than
left), and its middle portion is a Dyck path of order k with peak
height at most m-2.  Through that correspondence the product

    hit_probability(m, p) / p * conditional_hit_time(m, p)

equals the bounded-path series sum_k (2k+1) A(m-2, k) x^k evaluated at
x = p*(1-p).  The tests check that identity exactly against genfunc's
closed-form rational function, an independent route to the same number.

simulate() estimates both quantities empirically.  Trial t draws its
steps from its own splitmix64 stream seeded by mixing (seed, t), so
results are a pure function of the configuration and independent of
execution order or batching.  At most a fixed pool of trials is live,
refilled group by group as trials are absorbed, so memory does not grow
with the number of trials.  The live trials advance in blocks: one numpy
pass draws the next B steps of every live trial, with B chosen so that
live trials x B stays within a fixed budget of draws (B = 1 while many
trials are live, long blocks for the last few).  Trials still unresolved
after max_steps are counted as truncated and excluded from the
estimators.  A run's whole outcome is its truncated count and one
histogram of the right-absorbed trials by length.  So a run of more than
one pool splits its ids in two contiguous halves: the upper half runs in
a forked child when a second CPU is usable, and its histogram, added to
the lower half's, gives the same results bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .child import _in_child
from .heightpoly import check_step_probability, power_diff_ratio

if TYPE_CHECKING:
    from fractions import Fraction

_U64 = np.uint64
_STREAM_STEP = _U64(0x9E3779B97F4A7C15)
# A different odd constant for per-trial seeding keeps trial streams from
# being shifted copies of one another.
_TRIAL_KEY = _U64(0xD1B54A32D192ED03)
_MASK64 = (1 << 64) - 1
# Draws made in one pass of the simulator (live trials x block length).
# With the pool it sizes the pass's buffers; while at least this many
# trials are live they step one at a time, and the last few take long
# blocks.  A larger budget up to _POOL allocates nothing more, but a tail
# pass touches up to a budget's worth of each buffer: at 65,536, ru_maxrss
# rose 29.9 -> 32.2 MiB for walk --m 150 --p 1/2 --trials 4000 (7%, past
# the benchmark's 5% bound on peak RSS), for 1.3-1.6 ms less of its
# 9-11 ms simulation (2 cores).
_DRAW_BUDGET = 1 << 13
# The most trials live at once.  The next group of trial ids is admitted
# when the live ones fall to half of it, so memory does not grow with
# cfg.trials, and each pass's buffers stay cache-sized.
_POOL = 1 << 16


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one Monte Carlo run.

    p may be a Fraction or a float; the simulator always steps at
    binary64 resolution, so give p as a Fraction only to document intent -
    exact comparisons are done by the callers via the exact routes.  A
    step goes right when its 53-bit uniform u falls below float(p), a
    test made as one integer compare: the 64-bit draw against
    2**11 * ceil(float(p) * 2**53).  float(p) must lie in (0, 1), which
    for an exact p near 0 or 1 is a stronger demand than p itself.
    """

    m: int
    p: Fraction | float
    trials: int
    seed: int
    max_steps: int = 10 ** 7

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not 0 < self.p < 1 or not 0 < float(self.p) < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")


@dataclass(frozen=True)
class WalkStats:
    """Outcome counts and estimators of one run.

    hit_prob estimates absorption at m conditional on absorption
    (truncated trials are excluded); its standard error is binomial.
    mean_hit_len averages the lengths of right-absorbed walks, with the
    sample-standard-deviation standard error.  Estimators that have no
    supporting trials are NaN.
    """

    trials_run: int
    hits_right: int
    hits_left: int
    truncated: int
    hit_prob: float
    hit_prob_se: float
    mean_hit_len: float
    mean_hit_len_se: float


def hit_probability(m: int, p: Fraction) -> Fraction:
    """Exact probability that the walk from m-1 reaches m before 0.

    Equals p * power_diff(m-1, p) / power_diff(m, p).
    """
    return p * power_diff_ratio(m, p)


def conditional_hit_time(m: int, p: Fraction) -> Fraction:
    """Exact expected steps from m-1 to m, given 0 is never hit.

    The gambler's-ruin closed form: with r = (1-p)/p and
    f(n) = n * (1 + r**n) / (1 - r**n),

        T_m = (f(m) - f(m-1)) / (2p - 1).

    It solves the renewal recurrence T_2 = 1,
    T_i = r_i + T_{i-1} * (r_i - 1) with r_i = power_diff_ratio(i, p),
    in O(1) Fraction operations instead of O(m).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    check_step_probability(p)
    r = (1 - p) / p

    def f(n: int) -> Fraction:
        rn = r ** n
        return n * (1 + rn) / (1 - rn)

    return (f(m) - f(m - 1)) / (2 * p - 1)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 output function, in place over uint64 states; tmp takes the shifts."""
    np.right_shift(z, _U64(30), out=tmp)
    z ^= tmp
    z *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(z, _U64(27), out=tmp)
    z ^= tmp
    z *= _U64(0x94D049BB133111EB)
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    return z


def _right_step_bound(p: float) -> int:
    """The draws below this bound step right, for a binary64 p in (0, 1).

    A draw d steps right when its top 53 bits, scaled to [0, 1), fall
    below p: (d >> 11) * 2**-53 < p.  Both sides scale exactly, so that is
    d >> 11 < p * 2**53, which for an integer is d >> 11 < ceil(p * 2**53),
    that is d < 2**11 * ceil(p * 2**53): one compare of the whole draw.
    """
    return math.ceil(p * 2.0 ** 53) << 11


def _per_group(rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many of the sorted rows fall in each group, given each group's end row."""
    cuts = np.searchsorted(rows, ends)
    return cuts - np.concatenate(([0], cuts[:-1]))


def simulate(cfg: WalkConfig) -> WalkStats:
    """Run cfg.trials independent walks and return outcome statistics.

    Deterministic for a fixed configuration: trial t consumes the
    splitmix64 stream with initial state seed + (t+1) * key (mod 2**64),
    one draw per step, regardless of how trials are pooled, blocked or
    split between processes.  A run of more than one pool (_POOL trials)
    splits its ids in halves: a child forked by _in_child runs the upper
    one and pipes its outcome back while this process runs the lower one;
    with one usable CPU, or a pipe or fork that fails, this process runs
    the upper half after the lower (a one-pool run's upper part is empty,
    and read here).  The histograms add exactly, and _estimate works once
    from their sum, with the even-length check: one _run's results, bit for bit.
    """
    half = cfg.trials // 2 if cfg.trials > _POOL else cfg.trials
    upper = _outcome(cfg, half, cfg.trials)
    if half < cfg.trials:
        upper = _in_child(upper, "walk")
    with closing(upper):
        successes, truncated = _run(cfg, 0, half)
        truncated += next(upper)
        for length, n_right in zip(upper, upper):
            successes[length] += n_right
    return _estimate(cfg.trials, truncated, successes)


def _outcome(cfg: WalkConfig, first: int, last: int) -> Iterator[int]:
    """_run's outcome as ints: the truncated trials, then (length, trials) pairs."""
    successes, truncated = _run(cfg, first, last)
    yield truncated
    for pair in successes.items():
        yield from pair


def _run(cfg: WalkConfig, first: int, last: int) -> tuple[Counter[int], int]:
    """The right-absorbed trials by walk length, and the truncated trials,
    of the trials with ids first..last-1.

    At most _POOL trials are live.  They are admitted in contiguous row
    ranges (groups) of consecutive trial ids, and once the live rows fall
    to half the pool the next group refills it.  A group is held as its
    end row and its age, the steps it has taken; compaction moves the end
    rows down and drops the groups it empties.  Each row keeps its own
    stream counter, so a pass draws the same offsets for every row: the
    next B steps of every live trial, B = _DRAW_BUDGET // live (at least
    1, at most the steps the oldest group has left before max_steps).  A
    cumulative sum of the B moves gives each trial's positions, the first
    step outside 1..m-1 ends the trial (with moves of one it lands on 0
    or m), and the ended trials are dropped once per pass; a group that
    reaches max_steps is truncated whole.  A pass allocates no array of
    its live rows x B: that product never passes max(_POOL, _DRAW_BUDGET),
    the size of the buffers made once per call.  Right-absorbed trials are
    counted in one histogram by walk length.
    """
    pool, budget = _POOL, _DRAW_BUDGET
    below = _U64(_right_step_bound(float(cfg.p)))
    seed = _U64(cfg.seed & _MASK64)
    start = cfg.m - 1
    m = cfg.m
    cap = max(pool, budget)
    ctr = np.empty(cap, dtype=np.uint64)  # each live row's stream counter
    draws = np.empty(cap, dtype=np.uint64)  # then the next pass's counters (the two swap)
    spare = np.empty(cap, dtype=np.uint64)  # the mix's shifts, then the paths
    flags = np.empty(cap, dtype=bool)  # the steps right, then the exits
    rights = np.empty(cap, dtype=bool)  # the exits at m, in blocks of one
    pos = np.empty(pool, dtype=np.int64)  # each live row's position minus one
    offsets = np.arange(1, budget + 1, dtype=np.uint64) * _STREAM_STEP
    ends = np.empty(0, dtype=np.int64)  # each group's end row, oldest first
    ages = np.empty(0, dtype=np.int64)  # the steps each group has taken
    live, admitted = 0, first

    successes: Counter[int] = Counter()  # right-absorbed trials by walk length
    truncated = 0
    while True:
        if live <= pool // 2 and admitted < last:
            size = min(pool - live, last - admitted)
            # the stream states seed + id * key of the next ids, in place
            new = ctr[live:live + size]
            np.multiply(
                np.arange(admitted + 1, admitted + size + 1, dtype=np.uint64), _TRIAL_KEY, out=new
            )
            new += seed
            pos[live:live + size] = start - 1
            live += size
            admitted += size
            ends = np.append(ends, live)
            ages = np.append(ages, 0)
        if not live:
            break
        block = max(1, min(budget // live, cfg.max_steps - int(ages[0])))
        n = live * block
        # draws age+1 .. age+block of every live trial, one row per trial
        z = draws[:n]
        np.add(ctr[:live, None], offsets[:block], out=z.reshape(live, block))
        _mix64(z, spare[:n])
        paths = spare[:n].view(np.int64)
        np.multiply(np.less(z, below, out=flags[:n]), 2, out=paths)
        paths -= 1
        paths = paths.reshape(live, block)
        # Prefix sums along a block of one change nothing, yet numpy makes
        # them one call per row: skipped, they keep B = 1 as fast as a step.
        if block > 1:
            np.cumsum(paths, axis=1, out=paths)
        paths += pos[:live, None]
        # positions minus one: a step to 0 or m is the first outside 0..m-2
        exits = np.greater_equal(paths.view(np.uint64), m - 1, out=flags[:n].reshape(live, block))
        # right-absorbed trials counted by group and length
        if block > 1:  # a trial ends at its first exit in the block
            ended = exits.any(axis=1)
            at = np.flatnonzero(ended)
            at = at * block + exits.argmax(axis=1)[at]
            at = at[paths.reshape(n)[at] == m - 1]  # row * block + column of each
            groups = np.searchsorted(ends * block, at, side="right")
            counts = np.bincount(groups * block + at % block)
        else:
            ended = exits.reshape(live)
            at = np.flatnonzero(np.equal(paths, m - 1, out=rights[:n].reshape(live, 1)))
            counts = _per_group(at, ends)
        # Each index array is freed once used (at here, keep below), so that no
        # two are live at once and none outlives its pass.
        del at
        key = np.flatnonzero(counts)  # group * block + column
        lengths = ages[key // block] + key % block + 1
        # two groups can end trials at the same length in one pass: add, never set
        for length, n_right in zip(lengths.tolist(), counts[key].tolist()):
            successes[length] += n_right
        kept = np.logical_not(ended, out=ended)
        if ages[0] + block == cfg.max_steps:  # the oldest group is truncated whole
            truncated += int(np.count_nonzero(kept[:ends[0]]))
            kept[:ends[0]] = False
        keep = np.flatnonzero(kept)
        live = keep.size
        # mode="clip" writes straight into out, where the default buffers it
        np.take(paths[:, -1], keep, out=pos[:live], mode="clip")
        np.take(ctr, keep, out=draws[:live], mode="clip")
        ctr, draws = draws, ctr
        ctr[:live] += offsets[block - 1]
        ends = np.searchsorted(keep, ends)
        del keep
        ages += block
        alive = ends > np.concatenate(([0], ends[:-1]))  # drop the emptied groups
        ends, ages = ends[alive], ages[alive]
    return successes, truncated


def _estimate(trials: int, truncated: int, successes: Counter[int]) -> WalkStats:
    """WalkStats from the outcome counts and the right-absorbed trials by length."""
    for length in successes:
        if length % 2 == 0:
            raise AssertionError(f"even-length success at step {length}")
    hits_right = sum(successes.values())
    len_sum = sum(n * length for length, n in successes.items())
    len_sqsum = sum(n * length * length for length, n in successes.items())
    hits_left = trials - hits_right - truncated
    absorbed = hits_right + hits_left
    if absorbed:
        hit_prob = hits_right / absorbed
        hit_prob_se = math.sqrt(hit_prob * (1.0 - hit_prob) / absorbed)
    else:
        hit_prob = hit_prob_se = math.nan
    if hits_right:
        mean_len = len_sum / hits_right
        if hits_right > 1:
            var = (len_sqsum - len_sum * mean_len) / (hits_right - 1)
            mean_len_se = math.sqrt(max(var, 0.0) / hits_right)
        else:
            mean_len_se = math.nan
    else:
        mean_len = mean_len_se = math.nan

    return WalkStats(
        trials_run=trials,
        hits_right=hits_right,
        hits_left=hits_left,
        truncated=truncated,
        hit_prob=hit_prob,
        hit_prob_se=hit_prob_se,
        mean_hit_len=mean_len,
        mean_hit_len_se=mean_len_se,
    )
