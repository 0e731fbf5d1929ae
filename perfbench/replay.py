"""Independent replay of the simulator's documented per-trial streams.

``dyckwalk.walk.simulate`` documents its randomness: trial t (0-based)
starts from the splitmix64 state seed + (t+1) * key (mod 2**64), adds the
golden-ratio increment before each draw, and steps right when the draw's
top 53 bits, scaled to [0, 1), fall below float(p).  This module replays
those streams with its own code, block-stepped rather than in lockstep,
to recover what ``WalkStats`` does not report: the total number of
trial-steps and the longest walk.  Its outcome counts must match the
simulator's exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_KEY = np.uint64(0xD1B54A32D192ED03)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = 2.0 ** -53

_CHUNK = 1 << 16  # trials replayed together
_BUDGET = 1 << 20  # draws held in memory at once (trials x block length)
_MAX_BLOCK = 1 << 16


@dataclass(frozen=True)
class Replay:
    hits_right: int
    hits_left: int
    truncated: int
    trial_steps: int  # steps taken by all trials, truncated ones included
    longest_walk: int
    right_len_sum: int  # summed lengths of the walks absorbed at m


def _draws(states: np.ndarray) -> np.ndarray:
    z = states
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)) * _SCALE


def replay(m: int, p_step: float, trials: int, seed: int, max_steps: int) -> Replay:
    """Replay every trial of one ``walk`` run; p_step is float(p) as the CLI uses it."""
    right = left = truncated = steps = longest = right_sum = 0
    seed64 = np.uint64(seed % (1 << 64))
    for lo in range(0, trials, _CHUNK):
        ids = np.arange(lo + 1, min(lo + _CHUNK, trials) + 1, dtype=np.uint64)
        base = seed64 + ids * _KEY
        pos = np.full(ids.size, m - 1, dtype=np.int64)
        done = 0
        while pos.size and done < max_steps:
            block = max(1, min(_BUDGET // pos.size, _MAX_BLOCK, max_steps - done))
            offsets = np.arange(done + 1, done + block + 1, dtype=np.uint64) * _GAMMA
            u = _draws(base[:, None] + offsets[None, :])
            path = pos[:, None] + np.cumsum(np.where(u < p_step, 1, -1), axis=1)
            hit = (path <= 0) | (path >= m)
            ended = hit.any(axis=1)
            first = hit.argmax(axis=1)[ended]
            lengths = done + 1 + first
            at_right = path[ended, first] >= m
            n_right = int(at_right.sum())
            right += n_right
            left += int(ended.sum()) - n_right
            steps += int(lengths.sum())
            right_sum += int(lengths[at_right].sum())
            if lengths.size:
                longest = max(longest, int(lengths.max()))
            keep = ~ended
            base, pos = base[keep], path[keep, -1]
            done += block
        truncated += int(pos.size)
        steps += int(pos.size) * done
        if pos.size:
            longest = max(longest, done)
    return Replay(right, left, truncated, steps, longest, right_sum)
