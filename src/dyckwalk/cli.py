"""Command-line front end.

Subcommands:
    table   -- exact bounded-path counts A(n, 0..kmax)
    verify  -- cross-check the closed form against the independent oracles
    walk    -- Monte Carlo walk run, with exact comparison when p is a/b
    hpoly   -- coefficients of the recurrence polynomial family

Each run prints a single JSON object (default) or a CSV table to
stdout; diagnostics go to stderr.  Counts are serialized as decimal
strings because they outgrow 53-bit floats quickly.  Exit codes:
0 ok, 1 verification mismatch, 2 usage or domain error, 141 (128 +
SIGPIPE) when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from .genfunc import count_table
from .heightpoly import height_poly
from .oracle import (
    BRUTEFORCE_MAX_ORDER,
    count_by_contfrac,
    count_paths_bruteforce,
    count_paths_dp,
)
from .walk import WalkConfig, conditional_hit_time, hit_probability, simulate

# What a shell reports for a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _json_safe(value):
    """Replace non-finite floats with None so the output is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(record: dict, rows: tuple[list[str], list[list]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_json_safe(record), sort_keys=True))
    else:
        header, data = rows
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
    sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit


def _parse_p(text: str):
    """'a/b' gives an exact Fraction, a decimal literal a plain float."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den)), "exact"
        return float(text), "decimal"
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse probability {text!r}: {exc}")


def _cmd_table(args) -> tuple[str, dict, dict, tuple]:
    tbl = count_table(args.n, args.kmax)
    params = {"n": args.n, "kmax": args.kmax}
    results = {"counts": [str(c) for c in tbl.counts]}
    rows = (["n", "k", "count"], [[args.n, k, c] for k, c in enumerate(tbl.counts)])
    return "ok", params, results, rows


def _cmd_verify(args) -> tuple[str, dict, dict, tuple]:
    mismatches = []
    cells = 0
    for n in range(args.n_max + 1):
        counts = count_table(n, args.k_max).counts
        contfrac = count_by_contfrac(n, args.k_max)
        for k in range(args.k_max + 1):
            cells += 1
            routes = {
                "series": counts[k],
                "dp": count_paths_dp(k, n),
                "contfrac": contfrac[k],
            }
            if k <= BRUTEFORCE_MAX_ORDER:
                routes["bruteforce"] = count_paths_bruteforce(k, n)
            if len(set(routes.values())) > 1:
                mismatches.append({"n": n, "k": k} | {r: str(v) for r, v in routes.items()})
    status = "ok" if not mismatches else "mismatch"
    params = {"n_max": args.n_max, "k_max": args.k_max}
    results = {
        "cells": cells,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
        "bruteforce_max_order": BRUTEFORCE_MAX_ORDER,
    }
    rows = (
        ["n", "k", "series", "dp", "contfrac", "bruteforce"],
        [
            [mm["n"], mm["k"], mm["series"], mm["dp"], mm["contfrac"], mm.get("bruteforce", "")]
            for mm in mismatches
        ],
    )
    return status, params, results, rows


def _zscore(estimate: float, se: float, exact: float):
    if math.isnan(estimate) or math.isnan(se):
        return math.nan
    if se == 0.0:
        return 0.0 if estimate == exact else math.inf
    return (estimate - exact) / se


def _cmd_walk(args) -> tuple[str, dict, dict, tuple]:
    p_value, p_mode = args.p
    cfg = WalkConfig(
        m=args.m, p=p_value, trials=args.trials, seed=args.seed, max_steps=args.max_steps
    )
    stats = simulate(cfg)
    results = {
        "trials_run": stats.trials_run,
        "hits_right": stats.hits_right,
        "hits_left": stats.hits_left,
        "truncated": stats.truncated,
        "hit_prob": stats.hit_prob,
        "hit_prob_se": stats.hit_prob_se,
        "mean_hit_len": stats.mean_hit_len,
        "mean_hit_len_se": stats.mean_hit_len_se,
        "p_mode": p_mode,
    }
    if stats.truncated:
        results["note"] = "run unreliable: some trials hit the max_steps cap"
    if p_mode == "exact" and 2 * p_value != 1:
        exact_prob = hit_probability(args.m, p_value)
        exact_len = conditional_hit_time(args.m, p_value)
        results["exact"] = {
            "hit_prob": str(exact_prob),
            "hit_prob_float": float(exact_prob),
            "mean_hit_len": str(exact_len),
            "mean_hit_len_float": float(exact_len),
            "z_hit_prob": _zscore(stats.hit_prob, stats.hit_prob_se, float(exact_prob)),
            "z_mean_hit_len": _zscore(
                stats.mean_hit_len, stats.mean_hit_len_se, float(exact_len)
            ),
        }
    else:
        results["exact"] = None
        note = (
            "exact values undefined at p = 1/2"
            if p_mode == "exact"
            else "p given as a decimal; pass a/b for exact comparison"
        )
        results.setdefault("note", note)
    params = {
        "m": args.m,
        "p": str(p_value),
        "trials": args.trials,
        "seed": args.seed,
        "max_steps": args.max_steps,
    }
    flat = dict(results)
    exact = flat.pop("exact", None) or {}
    flat.update({f"exact_{k}": v for k, v in exact.items()})
    rows = (["field", "value"], [[k, v] for k, v in sorted(flat.items())])
    return "ok", params, results, rows


def _cmd_hpoly(args) -> tuple[str, dict, dict, tuple]:
    if args.m < 1:
        raise ValueError(f"--m must be a positive integer, got {args.m}")
    coeffs = height_poly(args.m)
    params = {"m": args.m}
    results = {"coeffs": [str(c) for c in coeffs], "degree": len(coeffs) - 1}
    rows = (["m", "j", "coeff"], [[args.m, j, c] for j, c in enumerate(coeffs)])
    return "ok", params, results, rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckwalk",
        description="Exact height-bounded Dyck path counts with random-walk cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format (default json)")

    p_table = sub.add_parser("table", help="counts A(n, 0..kmax) from the closed form")
    p_table.add_argument("--n", type=int, required=True, help="peak-height bound")
    p_table.add_argument("--kmax", type=int, required=True, help="largest path order")
    add_format(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="cross-check all counting routes on a grid")
    p_verify.add_argument("--n-max", type=int, required=True, help="largest height bound")
    p_verify.add_argument("--k-max", type=int, required=True, help="largest path order")
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_walk = sub.add_parser("walk", help="Monte Carlo absorbing-walk run")
    p_walk.add_argument("--m", type=int, required=True, help="right absorbing node")
    p_walk.add_argument("--p", type=_parse_p, required=True,
                        help="step-right probability, a/b (exact) or decimal")
    p_walk.add_argument("--trials", type=int, required=True, help="number of walks")
    p_walk.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_walk.add_argument("--max-steps", type=int, default=10 ** 7,
                        help="per-trial step cap (default 1e7)")
    add_format(p_walk)
    p_walk.set_defaults(handler=_cmd_walk)

    p_hpoly = sub.add_parser("hpoly", help="recurrence polynomial coefficients")
    p_hpoly.add_argument("--m", type=int, required=True, help="polynomial index (>= 1)")
    add_format(p_hpoly)
    p_hpoly.set_defaults(handler=_cmd_hpoly)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Counts outgrow the interpreter's 4300-digit limit on int -> str.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # The reader went away (say, `| head`).  Point stdout at /dev/null
        # so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _run(args) -> int:
    """Run the parsed command, print its record and return the exit code."""
    start = time.perf_counter()
    try:
        status, params, results, rows = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        elapsed = 1000.0 * (time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        record = {
            "command": args.command,
            "parameters": {},
            "results": {"error": str(exc)},
            "status": "error",
            "elapsed_ms": elapsed,
        }
        _emit(record, (["error"], [[str(exc)]]), args.format)
        return 2
    elapsed = 1000.0 * (time.perf_counter() - start)
    record = {
        "command": args.command,
        "parameters": params,
        "results": results,
        "status": status,
        "elapsed_ms": elapsed,
    }
    _emit(record, rows, args.format)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
