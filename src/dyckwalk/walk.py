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
height at most m-2; walk_length_to_order converts lengths to orders.
Through that correspondence the product

    hit_probability(m, p) / p * conditional_hit_time(m, p)

equals the bounded-path series sum_k (2k+1) A(m-2, k) x^k evaluated at
x = p*(1-p), and path_series_closed computes it directly from the
closed-form rational function, giving an independent route to the same
number.

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
estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .genfunc import series_denominator, series_numerator
from .heightpoly import check_step_probability, power_diff_ratio
from .poly import eval_at

_U64 = np.uint64
_STREAM_STEP = _U64(0x9E3779B97F4A7C15)
# A different odd constant for per-trial seeding keeps trial streams from
# being shifted copies of one another.
_TRIAL_KEY = _U64(0xD1B54A32D192ED03)
_INV53 = 2.0 ** -53
_MASK64 = (1 << 64) - 1
# Draws made in one pass of the simulator (live trials x block length).
# It bounds the pass's temporaries; while at least this many trials are
# live they step one at a time, and the last few take long blocks.
_DRAW_BUDGET = 1 << 13
# The most trials live at once.  The next group of trial ids is admitted
# when the live ones fall to half of it, so memory does not grow with
# cfg.trials, and each pass's arrays stay cache-sized.
_POOL = 1 << 16


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one Monte Carlo run.

    p may be a Fraction or a float; the simulator always steps at
    binary64 resolution (u < float(p) against 53-bit uniforms), so give
    p as a Fraction only to document intent - exact comparisons are done
    by the callers via the exact routes.
    """

    m: int
    p: Fraction | float
    trials: int
    seed: int
    max_steps: int = 10 ** 7

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not 0 < float(self.p) < 1:
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


def walk_length_to_order(length: int) -> int:
    """Order k of the Dyck path carried by a successful walk of 2k+1 steps."""
    if length < 1 or length % 2 == 0:
        raise ValueError(f"successful walk lengths are odd and positive, got {length}")
    return (length - 1) // 2


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function, vectorized over uint64 states, in place."""
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def simulate(cfg: WalkConfig) -> WalkStats:
    """Run cfg.trials independent walks and return outcome statistics.

    Deterministic for a fixed configuration: trial t consumes the
    splitmix64 stream with initial state seed + (t+1) * key (mod 2**64),
    one draw per step, regardless of how trials are pooled or blocked.
    At most _POOL trials are live.  They are admitted in contiguous row
    ranges (groups) of consecutive trial ids, each with its own birth
    step, and once the live rows fall to half the pool the next group
    refills it.  Each row keeps its own stream counter, so a pass draws
    the same offsets for every row: the next B steps of every live trial,
    B = _DRAW_BUDGET // live (at least 1, at most the steps the oldest
    group has left before max_steps).  A cumulative sum of the B moves
    gives each trial's positions, the first visit to 0 or m ends the
    trial, and the ended trials are dropped once per pass; a group that
    reaches max_steps is truncated whole.
    """
    p_step = float(cfg.p)
    seed = _U64(cfg.seed & _MASK64)
    start = cfg.m - 1
    ctr = np.empty(0, dtype=np.uint64)  # each live row's stream counter
    pos = np.empty(0, dtype=np.int64)
    sizes = np.empty(0, dtype=np.int64)  # live rows of each group, oldest first
    births = np.empty(0, dtype=np.int64)  # the step at which each group was admitted
    admitted = 0

    hits_right = truncated = 0
    len_sum = len_sqsum = 0  # exact int accumulation over right-absorbed trials
    step = 0
    while True:
        if pos.size <= _POOL // 2 and admitted < cfg.trials:
            size = min(_POOL - pos.size, cfg.trials - admitted)
            ids = np.arange(admitted + 1, admitted + size + 1, dtype=np.uint64)
            ctr = np.concatenate((ctr, seed + ids * _TRIAL_KEY))
            pos = np.concatenate((pos, np.full(size, start, dtype=np.int64)))
            sizes = np.append(sizes, size)
            births = np.append(births, step)
            admitted += size
        if not pos.size:
            break
        ages = step - births
        block = max(1, min(_DRAW_BUDGET // pos.size, cfg.max_steps - int(ages[0])))
        # draws age+1 .. age+block of every live trial, one row per trial
        offsets = np.arange(1, block + 1, dtype=np.uint64) * _STREAM_STEP
        draws = _mix64(ctr[:, None] + offsets)
        draws >>= _U64(11)
        paths = np.where(draws * _INV53 < p_step, 1, -1)
        del draws  # else it outlives the pass, next to the next pass's draws
        # Prefix sums along a block of one change nothing, yet numpy makes
        # them one call per row: skipped, they keep B = 1 as fast as a step.
        if block > 1:
            np.cumsum(paths, axis=1, out=paths)
        paths += pos[:, None]
        at_right = paths == cfg.m
        ends = at_right | (paths == 0)
        if block > 1:  # a trial ends at its first visit to 0 or m in the block
            ends &= np.cumsum(ends, axis=1) == 1
        ended = ends.any(axis=1)
        ends &= at_right
        # right-absorbed trials counted by group and length, so the sums stay exact ints
        starts = np.cumsum(sizes) - sizes
        right_hits = np.add.reduceat(ends, starts, axis=0, dtype=np.int64)
        ended_by_group = np.add.reduceat(ended, starts, dtype=np.int64)
        for g, j in zip(*np.nonzero(right_hits)):
            length, n_right = int(ages[g]) + 1 + int(j), int(right_hits[g, j])
            if length % 2 == 0:
                raise AssertionError(f"even-length success at step {length}")
            hits_right += n_right
            len_sum += n_right * length
            len_sqsum += n_right * length * length
        keep = ~ended
        ctr, pos = ctr[keep], paths[:, -1][keep]
        ctr += offsets[-1]
        sizes -= ended_by_group
        step += block
        if step - births[0] == cfg.max_steps:  # the oldest group is truncated whole
            truncated += int(sizes[0])
            ctr, pos = ctr[sizes[0]:], pos[sizes[0]:]
            sizes[0] = 0
        live = sizes > 0
        sizes, births = sizes[live], births[live]
    hits_left = cfg.trials - hits_right - truncated
    return _estimate(cfg.trials, hits_right, hits_left, truncated, len_sum, len_sqsum)


def _estimate(
    trials: int, hits_right: int, hits_left: int, truncated: int, len_sum: int, len_sqsum: int
) -> WalkStats:
    """WalkStats from the outcome counts and the exact sums of right-absorbed lengths."""
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
