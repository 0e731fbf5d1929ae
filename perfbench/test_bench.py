"""Self-checks of the benchmark's own reference code on hand-checkable values.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import checks
import reference
import run
from replay import replay
from traced import _madds


def test_reflection_count_is_catalan_when_bound_is_not_binding():
    for n in range(8):
        for k in range(n + 1):
            assert reference.reflection_count(n, k) == comb(2 * k, k) // (k + 1)


def test_reflection_count_small_rows():
    assert [reference.reflection_count(0, k) for k in range(5)] == [1, 0, 0, 0, 0]
    assert [reference.reflection_count(1, k) for k in range(5)] == [1, 1, 1, 1, 1]
    assert [reference.reflection_count(2, k) for k in range(7)] == [1, 1, 2, 4, 8, 16, 32]
    # height <= 3: 1 1 2 5 13 34 (every other Fibonacci number)
    assert [reference.reflection_count(3, k) for k in range(6)] == [1, 1, 2, 5, 13, 34]


def test_height_poly_coeffs():
    assert reference.height_poly_coeffs(1) == [1]
    assert reference.height_poly_coeffs(3) == [1, -1]
    assert reference.height_poly_coeffs(7) == [1, -5, 6, -1]


def test_ruin_probability():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert reference.ruin_probability(2, third) == third  # one step decides
    assert reference.ruin_probability(3, half) == Fraction(2, 3)
    assert reference.ruin_probability(3, third) == Fraction(3, 7)
    assert reference.ruin_probabilities(10, half)[4] == Fraction(4, 10)


def _numeric_moments(m, p, steps=3000):
    """Mean and variance of the hitting time at m by iterating the walk's distribution."""
    dist = [0.0] * (m + 1)
    dist[m - 1] = 1.0
    mass = first = second = 0.0
    for t in range(1, steps + 1):
        new = [0.0] * (m + 1)
        for i in range(1, m):
            new[i + 1] += p * dist[i]
            new[i - 1] += (1 - p) * dist[i]
        mass, first, second = mass + new[m], first + t * new[m], second + t * t * new[m]
        new[0] = new[m] = 0.0
        dist = new
    return first / mass, second / mass - (first / mass) ** 2


def test_conditional_hit_time():
    assert reference.conditional_hit_time(2, Fraction(2, 5)) == 1
    assert reference.conditional_hit_time(3, Fraction(1, 2)) == Fraction(5, 3)
    assert reference.conditional_hit_time(3, Fraction(1, 3)) == Fraction(11, 7)
    for m in range(2, 40):
        assert reference.conditional_hit_time(m, Fraction(1, 2)) == reference.symmetric_hit_time(m)


def test_conditional_hit_moments_match_iterated_distribution():
    assert reference.conditional_hit_variance(2, Fraction(2, 5)) == 0
    for m, p in [(3, Fraction(1, 2)), (4, Fraction(1, 3)), (6, Fraction(3, 5))]:
        mean, variance = _numeric_moments(m, float(p))
        assert abs(float(reference.conditional_hit_time(m, p)) - mean) < 1e-9
        assert abs(reference.conditional_hit_variance(m, p) - variance) < 1e-9


def _naive_walks(m, p_step, trials, seed, max_steps):
    """The documented per-trial splitmix64 stream, one Python int at a time."""
    mask = (1 << 64) - 1
    outcomes = []
    for t in range(trials):
        state, pos, steps = (seed + (t + 1) * 0xD1B54A32D192ED03) & mask, m - 1, 0
        while 0 < pos < m and steps < max_steps:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            pos += 1 if (z >> 11) * 2.0 ** -53 < p_step else -1
            steps += 1
        outcomes.append(("right" if pos == m else "left" if pos == 0 else "cut", steps))
    return outcomes


def test_replay_matches_naive_stream():
    for m, p, trials, seed, max_steps in [(3, 1 / 3, 300, 42, 10**7), (6, 0.5, 200, 7, 25)]:
        walks = _naive_walks(m, p, trials, seed, max_steps)
        got = replay(m, p, trials, seed, max_steps)
        assert got.hits_right == sum(side == "right" for side, _ in walks)
        assert got.hits_left == sum(side == "left" for side, _ in walks)
        assert got.truncated == sum(side == "cut" for side, _ in walks)
        assert got.trial_steps == sum(steps for _, steps in walks)
        assert got.longest_walk == max(steps for _, steps in walks)
        assert got.right_len_sum == sum(steps for side, steps in walks if side == "right")


def test_madds_counts_series_coeffs_inner_loop():
    for kmax in range(12):
        for degree in range(6):
            assert _madds(kmax, degree) == sum(min(k, degree) for k in range(kmax + 1))


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert run.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_record_digest_ignores_only_elapsed_ms():
    a = b'{"command": "table", "elapsed_ms": 0.08, "status": "ok"}\n'
    b = b'{"command": "table", "elapsed_ms": 12.5e-3, "status": "ok"}\n'
    c = b'{"command": "table", "elapsed_ms": 0.08, "status": "error"}\n'
    assert checks.record_digest(a) == checks.record_digest(b) != checks.record_digest(c)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
