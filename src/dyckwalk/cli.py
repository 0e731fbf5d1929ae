"""Command-line front end.

Subcommands:
    table   -- exact bounded-path counts A(n, 0..kmax)
    verify  -- cross-check the closed form against the independent oracles
    walk    -- Monte Carlo walk run, with exact comparison when p is a/b
    hpoly   -- coefficients of the height polynomial family

Each run prints a single JSON object (default) or a CSV table to
stdout; diagnostics go to stderr.  Counts are serialized as decimal
strings because they outgrow 53-bit floats quickly.  Exit codes:
0 ok, 1 verification mismatch, 2 usage or domain error (including an
input above its ceiling), 3 defect (a check that only a bug can fail),
141 (128 + SIGPIPE) when stdout is closed, before the record is written
or at start.  `run` is the process and owns its streams and environment;
`main` returns the code and leaves both alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import closing, suppress
from typing import Iterator, NoReturn

from .child import _in_child
from .genfunc import DivisibilityError, count_table
from .heightpoly import height_poly
from .oracle import BRUTEFORCE_MAX_ORDER, contfrac_rows, count_paths_bruteforce, count_row_dp

EXIT_MISMATCH = 1
EXIT_ERROR = 2
EXIT_DEFECT = 3
# What a shell reports for a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141
_EXIT_CODES = {"ok": 0, "mismatch": EXIT_MISMATCH, "error": EXIT_ERROR, "defect": EXIT_DEFECT}

# Input ceilings, checked before anything is built.  Each keeps the
# largest accepted run under about 1 GB and a minute on 2 cores, as
# measured at the ceiling: table --n 3999..4000 --kmax 4000 in 5.7-6.9 s
# and 36-37 MiB, 20 MiB in its child (--n has no ceiling: a row runs at
# min(n, kmax), and the sweeps grow with n up to there; two runs each),
# hpoly --m 40000 in 14.2-15.0 s and 185 MiB (the record streamed; built
# whole first, 479 MiB), walk --m 500000 --p 2/5 --trials 1 in 15-16 s and
# 34 MiB (m 1000000 took 67 s), verify --n-max 100 --k-max 4000 in
# 13.2-14.4 s with its rows split between two processes and 23.2-23.5 s
# under taskset -c 0, at 28 MiB (the DP and series rows are most of it;
# --n-max 150 took 70 s in one process).  Two walk ceilings bound products:
# m times the bits of an exact p's denominator, which sizes the exact
# rationals (--m 150000 --p 511/1023 took 50 s, --m 200000 --p 999/1000
# 74 s), and the work of the trials, which is their time (the simulator's
# memory does not grow with them).
MAX_TABLE_KMAX = 4000
MAX_HPOLY_M = 40000
MAX_WALK_M = 500_000
MAX_WALK_EXACT_BITS = 1_500_000
# A walk's work is trials * (expected steps, at most --max-steps), in
# trial-steps.  A trial's admission and counting add no measurable time to
# its steps: a trial-step took 11.1-13.2 ns from m = 2 to m = 40, trials
# of one step included, and 19 ns at m = 1000 (in one process, 2 cores,
# fastest of three runs), so trials carry no extra weight.  At the ceiling,
# with the trials split between two processes, --m 1000 --p 1/2 --trials
# 1501501 took 26 s at 33 MiB, the slowest measured (40 s in one process
# on the same host); --m 3000 took 18 s, --m 300 12 s, --m 3 --p 1/3 (700
# million trials) 9.6 s (18 s in one), --m 2 (1.5 billion) 8.4 s (17 s)
# and --m 1000 --max-steps 1 (1.5 billion) 8.1 s, all at 32-33 MiB, the
# larger of the two processes (--seed 5, one run each).
MAX_WALK_WORK = 15 * 10 ** 8
MAX_VERIFY_N = 100
MAX_VERIFY_K = 4000


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
        json.dump(_json_safe(record), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        header, data = rows
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)


def _check_ceiling(flag: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise ValueError(f"{flag} must be at most {ceiling}, got {value}")


def _parse_p(text: str):
    """'a/b' gives an exact Fraction, a decimal literal a plain float."""
    # Imported here: fractions loads decimal, which only walk needs.
    from fractions import Fraction

    try:
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if not den:
                raise ValueError("zero denominator")
            return Fraction(num, den)
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse probability {text!r}: {exc}")


def _cmd_table(args) -> tuple[str, dict, tuple]:
    _check_ceiling("--kmax", args.kmax, MAX_TABLE_KMAX)
    counts = [str(c) for c in count_table(args.n, args.kmax).counts]
    n = str(args.n)  # once: n has no ceiling, and str() is quadratic in its digits
    rows = (["n", "k", "count"], [[n, k, c] for k, c in enumerate(counts)])
    return "ok", {"counts": counts}, rows


# verify's routes, in the order of its CSV columns and of a mismatched cell's ints.
_ROUTES = ("series", "dp", "contfrac", "bruteforce")


def _cmd_verify(args) -> tuple[str, dict, tuple]:
    for flag, value in (("--n-max", args.n_max), ("--k-max", args.k_max)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    _check_ceiling("--n-max", args.n_max, MAX_VERIFY_N)
    _check_ceiling("--k-max", args.k_max, MAX_VERIFY_K)
    n_max, k_max = args.n_max, args.k_max
    # This process checks the fewest lowest rows that hold at least half of
    # the work, row n's taken as n+1, and a child forked before any row is
    # built checks the rest, if a grid of three rows or more leaves any; its
    # cells follow this band's, so the record is that of one process.
    split, lower, total = 0, 0, (n_max + 1) * (n_max + 2) // 2
    while 2 * lower < total:
        split += 1
        lower += split
    upper = _mismatched_cells(split, n_max, k_max)
    if split <= n_max:
        upper = _in_child(upper, "verify band")
    with closing(upper):
        cells = [*_mismatched_cells(0, split - 1, k_max), *upper]
    mismatches = []
    stream = iter(cells)
    for n, k, *routes in zip(stream, stream, stream, stream, stream):
        if k <= BRUTEFORCE_MAX_ORDER:  # a cell of the brute force's orders
            routes.append(next(stream))
        mismatches.append({"n": n, "k": k} | dict(zip(_ROUTES, map(str, routes))))
    status = "ok" if not mismatches else "mismatch"
    results = {
        "cells": (n_max + 1) * (k_max + 1),
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
        "bruteforce_max_order": BRUTEFORCE_MAX_ORDER,
    }
    rows = (
        ["n", "k", *_ROUTES],
        [[mm["n"], mm["k"], *(mm.get(route, "") for route in _ROUTES)] for mm in mismatches],
    )
    return status, results, rows


def _mismatched_cells(n_min: int, n_max: int, k_max: int) -> Iterator[int]:
    """Each cell of rows n_min..n_max on which the routes disagree, as ints:
    n, k, the series, the DP and the convergent, then the brute force's
    count when k <= min(k_max, BRUTEFORCE_MAX_ORDER).

    One row per route and height bound: the series, one DP pass and the
    next convergent of one continued-fraction sweep.  Rows are compared
    whole, and cell by cell only when they disagree.
    """
    orders = range(min(k_max, BRUTEFORCE_MAX_ORDER) + 1)
    for n, contfrac in enumerate(contfrac_rows(n_max, k_max, n_min), n_min):
        series = list(count_table(n, k_max).counts)
        dp = count_row_dp(n, k_max)
        brute = [count_paths_bruteforce(k, n) for k in orders]
        if series == dp == contfrac and brute == dp[:len(brute)]:
            continue
        for k, routes in enumerate(zip(series, dp, contfrac)):
            if k < len(brute):
                routes += (brute[k],)
            if len(set(routes)) > 1:
                yield n
                yield k
                yield from routes


def _zscore(estimate: float, se: float, exact: float):
    # WalkStats makes an estimate NaN only with its error, and so the quotient.
    if se == 0.0:
        return 0.0 if estimate == exact else math.inf
    return (estimate - exact) / se


def _expected_walk_steps(m: int, p: float) -> float:
    """Expected steps of the walk from m-1 to absorption at 0 or m.

    The gambler's-ruin duration (Feller, vol. 1, XIV.3) from z = m-1:
    z * (m - z) = m - 1 at p = 1/2, and otherwise, with q = 1 - p and
    L = log(q/p),

        (z - m * (1 - e**(z L)) / (1 - e**(m L))) / (q - p),

    whose ratio is taken through expm1 so that no power overflows.
    """
    q = 1.0 - p
    # Near p = 1/2 the formula loses its digits to cancellation, while m - 1
    # is within a factor 1 + m * |q - p| of the duration.
    if abs(q - p) < 1e-9:
        return float(m - 1)
    z, log_r = m - 1, math.log(q / p)
    if log_r < 0:
        ratio = math.expm1(z * log_r) / math.expm1(m * log_r)
    else:  # the same ratio with e**(m L) divided out
        ratio = math.exp(-log_r) * math.expm1(-z * log_r) / math.expm1(-m * log_r)
    return (z - m * ratio) / (q - p)


def _check_walk_ceilings(args) -> None:
    """Refuse a walk above a ceiling, or one whose exact p the simulator cannot
    resolve; all of these are checked before numpy loads."""
    _check_ceiling("--m", args.m, MAX_WALK_M)
    p_value = args.p
    if args.m < 2 or not 0 < p_value < 1:
        return  # WalkConfig names the bad input
    p_step = float(p_value)
    if not 0 < p_step < 1:  # only an exact p rounds out of (0, 1)
        # The record echoes p; the message gives only its size.
        raise ValueError(
            f"p rounds to {int(p_step)} at the simulator's binary64 resolution; it has "
            f"a {len(str(p_value.numerator))}-digit numerator and a "
            f"{len(str(p_value.denominator))}-digit denominator"
        )
    if not isinstance(p_value, float) and 2 * p_value != 1:
        bits = args.m * p_value.denominator.bit_length()
        if bits > MAX_WALK_EXACT_BITS:
            raise ValueError(
                f"--m times the bits of p's denominator must be at most "
                f"{MAX_WALK_EXACT_BITS} for the exact comparison, got {bits}"
            )
    if args.trials < 1 or args.max_steps < 1:
        return  # WalkConfig names the bad input
    steps = min(_expected_walk_steps(args.m, p_step), args.max_steps)
    # a count of trials past the float range is past the ceiling too
    work = args.trials * steps if args.trials < sys.float_info.max else math.inf
    if work > MAX_WALK_WORK:
        raise ValueError(
            f"--trials times the expected steps of a walk, at most --max-steps, "
            f"must be at most {MAX_WALK_WORK:.10g}, got {work:.10g}"
        )


def _cmd_walk(args) -> tuple[str, dict, tuple]:
    _check_walk_ceilings(args)
    # Imported here, not at the top: only walk needs numpy, whose import
    # would otherwise be most of every other command's start-up.
    from .walk import WalkConfig, conditional_hit_time, hit_probability, simulate

    p_mode = "decimal" if isinstance(args.p, float) else "exact"
    cfg = WalkConfig(
        m=args.m, p=args.p, trials=args.trials, seed=args.seed, max_steps=args.max_steps
    )
    stats = simulate(cfg)
    # WalkStats' field names are the record's keys
    results = dict(vars(stats), p_mode=p_mode)
    if stats.truncated:
        results["note"] = "run unreliable: some trials hit the max_steps cap"
    if p_mode == "exact" and 2 * args.p != 1:
        exact_prob = hit_probability(args.m, args.p)
        exact_len = conditional_hit_time(args.m, args.p)
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
    flat = dict(results)
    exact = flat.pop("exact", None) or {}
    flat.update({f"exact_{k}": v for k, v in exact.items()})
    rows = (["field", "value"], [[k, v] for k, v in sorted(flat.items())])
    return "ok", results, rows


def _cmd_hpoly(args) -> tuple[str, dict, tuple]:
    if args.m < 1:
        raise ValueError(f"--m must be a positive integer, got {args.m}")
    _check_ceiling("--m", args.m, MAX_HPOLY_M)
    coeffs = [str(c) for c in height_poly(args.m)]
    results = {"coeffs": coeffs, "degree": len(coeffs) - 1}
    rows = (["m", "j", "coeff"], [[args.m, j, c] for j, c in enumerate(coeffs)])
    return "ok", results, rows


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
                        help="per-trial step cap (default %(default)s)")
    add_format(p_walk)
    p_walk.set_defaults(handler=_cmd_walk)

    p_hpoly = sub.add_parser("hpoly", help="height polynomial coefficients")
    p_hpoly.add_argument("--m", type=int, required=True, help="polynomial index (>= 1)")
    add_format(p_hpoly)
    p_hpoly.set_defaults(handler=_cmd_hpoly)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Counts outgrow the interpreter's 4300-digit limit on int <-> str,
    # which is lifted for the call only (a Python before 3.10.7 has none).
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(_build_parser().parse_args(argv))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(_build_parser().parse_args(argv))
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> NoReturn:
    """The dyckwalk process, the one owner of its streams and environment.
    A stdout closed at start or by the reader gives 141, a stderr closed at
    start becomes /dev/null, and once the record is flushed os._exit skips
    the interpreter's teardown (every child is reaped, no other file holds
    output).  A SystemExit or an exception out of main leaves the normal way."""
    if sys.stdout is None:
        os._exit(EXIT_BROKEN_PIPE)
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    # Read as numpy loads: the walk makes no BLAS call, and OpenBLAS's
    # worker thread burns CPU that a split run's child needs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away, say `| head`
        code = EXIT_BROKEN_PIPE
    os._exit(code)


def _parameters(args) -> dict:
    """The echo of the command's flags that every record of it carries."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "format", "handler")}
    if "p" in params:
        params["p"] = str(params["p"])  # the value; its mode is a result
    return params


def _run(args) -> int:
    """Run the parsed command, print its record and return the exit code.

    A check that only a bug can fail (a series coefficient off its 2k+1
    divisor, the brute-force filter check, an even-length walk success,
    a child of count_table's pipeline, of walk's split or of verify's
    upper band that failed or cut its stream short) ends in status
    "defect" and exit 3; bad input in "error" and exit 2.  The record of
    a run that raised carries its message, which also goes to stderr.
    """
    params = _parameters(args)
    start = time.perf_counter()
    try:
        status, results, rows = args.handler(args)
    except (DivisibilityError, AssertionError, ChildProcessError) as exc:
        status, message = "defect", f"{type(exc).__name__}: {exc}"
    except (ValueError, ArithmeticError) as exc:
        status, message = "error", str(exc)
    else:
        message = None
    elapsed = 1000.0 * (time.perf_counter() - start)
    if message is not None:
        if sys.stderr is not None:  # None if fd 2 was closed at start: print would use stdout
            with suppress(OSError):  # a diagnostic: a closed stderr must not lose the record
                print(f"{status}: {message}", file=sys.stderr)
        results, rows = {"error": message}, (["error"], [[message]])
    record = {
        "command": args.command,
        "parameters": params,
        "results": results,
        "status": status,
        "elapsed_ms": elapsed,
    }
    _emit(record, rows, args.format)
    return _EXIT_CODES[status]
