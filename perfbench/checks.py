"""Checks of dyckwalk's JSON records against the reference computations.

Each check takes the command line a record answers and the parsed record,
and returns a list of problems (empty when the record is right).  Nothing
is compared with a stored copy of earlier output: counts are recomputed by
the reflection principle and the binomial closed form, verify grids by
their own summary fields, and walks by the ruin formula and the
first-step equations, within five standard errors for the estimates and
exactly for the exact fields.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import lru_cache

import reference

CHECKED_CELLS = 16  # evenly spaced cells per table row, besides the first few and the last
Z_LIMIT = 5.0


_ELAPSED = re.compile(rb'"elapsed_ms": [-+0-9.eE]+')


def record_digest(output: bytes) -> str:
    """Digest of a command's output with its elapsed_ms value blanked out.

    Two runs of one command must give the same digest: records are
    byte-identical apart from elapsed_ms.
    """
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_ms": -', output)).hexdigest()


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i].lstrip("-"): argv[i + 1] for i in range(1, len(argv), 2)}


def check(argv: list[str], record: dict) -> list[str]:
    problems = []
    if record.get("status") != "ok":
        problems.append(f"status {record.get('status')!r}")
    if record.get("command") != argv[0]:
        problems.append(f"command {record.get('command')!r}")
    flags = _flags(argv)
    results = record.get("results", {})
    problems += _CHECKS[argv[0]](flags, record.get("parameters", {}), results)
    return problems


def _check_table(flags, params, results) -> list[str]:
    n, kmax = int(flags["n"]), int(flags["kmax"])
    if params != {"n": n, "kmax": kmax}:
        return [f"parameters {params}"]
    counts = results["counts"]
    if len(counts) != kmax + 1:
        return [f"{len(counts)} counts for kmax={kmax}"]
    stride = max(1, kmax // CHECKED_CELLS)
    cells = sorted(set(range(min(kmax, 8) + 1)) | set(range(0, kmax + 1, stride)) | {kmax})
    return [
        f"A({n},{k}) = {counts[k][:20]}... differs from the reflection sum"
        for k in cells
        if int(counts[k]) != reference.reflection_count(n, k)
    ]


def _check_hpoly(flags, params, results) -> list[str]:
    m = int(flags["m"])
    if params != {"m": m}:
        return [f"parameters {params}"]
    want = reference.height_poly_coeffs(m)
    if results["degree"] != len(want) - 1:
        return [f"degree {results['degree']} for m={m}"]
    if [int(c) for c in results["coeffs"]] != want:
        return [f"P_{m} coefficients differ from (-1)^j C(m-1-j, j)"]
    return []


def _check_verify(flags, params, results) -> list[str]:
    n_max, k_max = int(flags["n-max"]), int(flags["k-max"])
    problems = []
    if params != {"n_max": n_max, "k_max": k_max}:
        problems.append(f"parameters {params}")
    if results["mismatch_count"] != 0 or results["mismatches"]:
        problems.append(f"{results['mismatch_count']} mismatched cells")
    if results["cells"] != (n_max + 1) * (k_max + 1):
        problems.append(f"{results['cells']} cells for n<={n_max}, k<={k_max}")
    return problems


@lru_cache(maxsize=None)
def _walk_reference(m: int, p_text: str):
    """Ruin probability, conditional hitting time and its variance."""
    p = reference.parse_p(p_text)
    if 2 * p == 1:
        mean = reference.symmetric_hit_time(m)
    else:
        mean = reference.conditional_hit_time(m, p)
    return reference.ruin_probability(m, p), mean, reference.conditional_hit_variance(m, p)


def _within(estimate, exact, variance, samples: int) -> bool:
    """|estimate - exact| <= Z_LIMIT standard errors, the error taken at the exact value.

    The record's own standard errors come from the sample, which
    understates them when p is near 0 or 1 or when a rare long walk is
    missing from the sample.
    """
    if estimate is None or samples == 0:
        return False
    return abs(estimate - float(exact)) <= Z_LIMIT * math.sqrt(float(variance) / samples)


def _check_walk(flags, params, results) -> list[str]:
    m, trials = int(flags["m"]), int(flags["trials"])
    want_params = {
        "m": m,
        "p": str(reference.parse_p(flags["p"])),
        "trials": trials,
        "seed": int(flags["seed"]),
        "max_steps": int(flags["max-steps"]),
    }
    problems = [] if params == want_params else [f"parameters {params}"]
    hits = results["hits_right"] + results["hits_left"] + results["truncated"]
    if hits != trials or results["trials_run"] != trials:
        problems.append(f"outcomes add up to {hits}, not {trials}")
    if results["truncated"]:
        problems.append(f"{results['truncated']} truncated trials")
    hit, hit_time, hit_time_variance = _walk_reference(m, flags["p"])
    absorbed = results["hits_right"] + results["hits_left"]
    if not _within(results["hit_prob"], hit, hit * (1 - hit), absorbed):
        problems.append(f"hit_prob {results['hit_prob']} not within {Z_LIMIT} SE of {float(hit)}")
    if not _within(results["mean_hit_len"], hit_time, hit_time_variance, results["hits_right"]):
        problems.append(
            f"mean_hit_len {results['mean_hit_len']} not within {Z_LIMIT} SE of {float(hit_time)}"
        )
    exact = results["exact"]
    if flags["p"] == "1/2":
        if exact is not None:
            problems.append("exact fields at p = 1/2")
    elif exact is None:
        problems.append("exact fields missing")
    elif (exact["hit_prob"], exact["mean_hit_len"]) != (str(hit), str(hit_time)) or (
        exact["hit_prob_float"],
        exact["mean_hit_len_float"],
    ) != (float(hit), float(hit_time)):
        problems.append("exact fields differ from the first-step solve")
    return problems


_CHECKS = {
    "table": _check_table,
    "hpoly": _check_hpoly,
    "verify": _check_verify,
    "walk": _check_walk,
}

