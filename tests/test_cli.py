"""End-to-end checks of the command-line interface."""

import ast
import csv
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dyckwalk
from dyckwalk import cli, genfunc, oracle, walk
from dyckwalk.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DEFECT,
    MAX_HPOLY_M,
    MAX_TABLE_KMAX,
    MAX_VERIFY_K,
    MAX_VERIFY_N,
    MAX_WALK_EXACT_BITS,
    MAX_WALK_M,
    MAX_WALK_WORK,
    main,
)
from dyckwalk.genfunc import CountTable, DivisibilityError

from conftest import CHILD_FAULTS, child_fault, needs_fork


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_elapsed(out: str) -> str:
    """Output with the record's one field that differs from run to run cut."""
    return re.sub(r'"elapsed_ms": [^,}]+', "", out)


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_table_json_contract(capsys):
    code, record, _ = run_json(capsys, "table", "--n", "2", "--kmax", "6")
    assert code == 0
    assert record["command"] == "table"
    assert record["status"] == "ok"
    assert record["parameters"] == {"n": 2, "kmax": 6}
    assert record["results"]["counts"] == ["1", "1", "2", "4", "8", "16", "32"]
    assert record["elapsed_ms"] >= 0


@pytest.mark.parametrize(
    "n, kmax, expected",
    [(1, 4, ["1", "1", "1", "1", "1"]), (2, 4, ["1", "1", "2", "4", "8"]), (0, 2, ["1", "0", "0"])],
)
def test_table_golden_rows(capsys, n, kmax, expected):
    code, record, _ = run_json(capsys, "table", "--n", str(n), "--kmax", str(kmax))
    assert code == 0
    assert record["results"]["counts"] == expected


def test_table_csv_matches_json_numerically(capsys):
    _, record, _ = run_json(capsys, "table", "--n", "3", "--kmax", "10")
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--kmax", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["count"] for row in rows] == record["results"]["counts"]
    assert [int(row["k"]) for row in rows] == list(range(11))
    assert all(row["n"] == "3" for row in rows)


def test_json_output_round_trips(capsys):
    _, out, _ = run_cli(capsys, "table", "--n", "4", "--kmax", "8")
    line = out.strip()
    assert json.dumps(json.loads(line), sort_keys=True) == line


def test_verify_clean_grid(capsys):
    code, record, _ = run_json(capsys, "verify", "--n-max", "4", "--k-max", "8")
    assert code == 0
    assert record["status"] == "ok"
    assert record["results"]["cells"] == 45
    assert record["results"]["mismatch_count"] == 0
    assert record["results"]["mismatches"] == []


def test_verify_single_cell(capsys):
    code, record, _ = run_json(capsys, "verify", "--n-max", "0", "--k-max", "0")
    assert code == 0
    assert record["status"] == "ok"
    assert record["results"]["cells"] == 1


def test_verify_builds_each_row_once(capsys, monkeypatch):
    dp_rows, sweeps, cells = [], [], []

    def recorder(log, fn):
        def record(*args):
            log.append(args)
            return fn(*args)

        return record

    monkeypatch.setattr(cli, "count_row_dp", recorder(dp_rows, oracle.count_row_dp))
    monkeypatch.setattr(cli, "contfrac_rows", recorder(sweeps, oracle.contfrac_rows))
    monkeypatch.setattr(oracle, "count_paths_dp", recorder(cells, oracle.count_paths_dp))
    oracle._maxima_histograms.cache_clear()
    # on one CPU, so that every row is built in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, record, _ = run_json(capsys, "verify", "--n-max", "3", "--k-max", "16")
    assert code == 0
    assert record["results"]["cells"] == 4 * 17
    assert dp_rows == [(n, 16) for n in range(4)]
    # one sweep for each band, rows 0..2 and row 3, each dividing its own rows
    assert sweeps == [(2, 16, 0), (3, 16, 3)]
    assert cells == [] and "count_paths_dp" not in vars(cli)
    # every brute-force order enumerated once, by the first row that reads
    # it, however many bounds ask for it
    info = oracle._maxima_histograms.cache_info()
    assert info.misses == oracle.BRUTEFORCE_MAX_ORDER + 1
    assert info.hits == 4 * (oracle.BRUTEFORCE_MAX_ORDER + 1) - info.misses


def test_verify_reports_each_mismatched_cell(capsys, monkeypatch):
    def one_off(n, kmax):
        row = oracle.count_row_dp(n, kmax)
        # one cell the brute force also covers, one past its guard
        for bad_n, bad_k in ((1, 3), (2, 16)):
            if n == bad_n:
                row[bad_k] += 1
        return row

    monkeypatch.setattr(cli, "count_row_dp", one_off)
    code, record, _ = run_json(capsys, "verify", "--n-max", "2", "--k-max", "16")
    assert code == 1
    assert record["status"] == "mismatch"
    assert record["results"]["cells"] == 3 * 17
    assert record["results"]["mismatch_count"] == 2
    assert record["results"]["mismatches"] == [
        {"n": 1, "k": 3, "series": "1", "dp": "2", "contfrac": "1", "bruteforce": "1"},
        {"n": 2, "k": 16, "series": "32768", "dp": "32769", "contfrac": "32768"},
    ]
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-max", "16", "--format", "csv")
    assert code == 1
    assert list(csv.reader(io.StringIO(out))) == [
        ["n", "k", "series", "dp", "contfrac", "bruteforce"],
        ["1", "3", "1", "2", "1", "1"],
        ["2", "16", "32768", "32769", "32768", ""],
    ]


def test_verify_reports_a_bruteforce_cell_the_other_routes_agree_on(capsys, monkeypatch):
    def one_off(k, n):
        return oracle.count_paths_bruteforce(k, n) + ((k, n) == (0, 2))

    monkeypatch.setattr(cli, "count_paths_bruteforce", one_off)
    code, record, _ = run_json(capsys, "verify", "--n-max", "3", "--k-max", "20")
    assert code == 1
    assert record["results"]["mismatches"] == [
        {"n": 2, "k": 0, "series": "1", "dp": "1", "contfrac": "1", "bruteforce": "2"},
    ]


# Order-2 half walks: U D ends at 0 (maximum 1, highest peak 1) and U U
# at 2 (maximum 2, no inner peak; the junction of U U D D is its peak).
@pytest.fixture(
    params=[
        # U D's peak raised to 2: U D U D peaks above its maximum
        (0, 1, 2, "peak-height filter (0) and max-height filter (1) disagree at k=2, n=1"),
        # U U's maximum lowered to 1: U U D D's junction peak stands above it
        (2, 0, 1, "peak-height filter (1) and max-height filter (2) disagree at k=2, n=1"),
    ],
    ids=["peak-raised", "height-lowered"],
)
def corrupt_half_walk(request, monkeypatch):
    """Corrupt one order-2 half walk; yield the brute force's message."""
    end, field, value, message = request.param
    half_walks = oracle._half_walks

    def corrupted(k):
        by_end = half_walks(k)
        if k == 2:
            entry = list(by_end[end][0])
            entry[field] = value
            by_end[end][0] = tuple(entry)
        return by_end

    monkeypatch.setattr(oracle, "_half_walks", corrupted)
    oracle._maxima_histograms.cache_clear()
    yield message
    oracle._maxima_histograms.cache_clear()


def test_unequal_peak_and_height_bytes_are_a_defect(capsys, corrupt_half_walk):
    message = corrupt_half_walk
    assert oracle.count_paths_bruteforce(2, 0) == 0
    with pytest.raises(AssertionError) as info:
        oracle.count_paths_bruteforce(2, 1)
    assert str(info.value) == message
    code, record, err = run_json(capsys, "verify", "--n-max", "3", "--k-max", "4")
    assert code == EXIT_DEFECT
    assert record["status"] == "defect"
    assert record["results"]["error"] == f"AssertionError: {message}"
    assert err == f"defect: AssertionError: {message}\n"


def test_walk_with_rational_p_reports_exact_comparison(capsys):
    code, record, _ = run_json(
        capsys, "walk", "--m", "3", "--p", "1/3", "--trials", "20000", "--seed", "3"
    )
    assert code == 0
    results = record["results"]
    assert results["p_mode"] == "exact"
    exact = results["exact"]
    assert exact["hit_prob"] == "3/7"
    assert exact["mean_hit_len"] == "11/7"
    assert abs(exact["z_hit_prob"]) < 6
    assert abs(exact["z_mean_hit_len"]) < 6
    assert results["trials_run"] == 20000
    assert results["truncated"] == 0
    assert record["parameters"] == {
        "m": 3, "p": "1/3", "trials": 20000, "seed": 3, "max_steps": 10 ** 7
    }


def test_walk_at_one_half_has_null_exact_fields(capsys):
    code, record, _ = run_json(
        capsys, "walk", "--m", "4", "--p", "1/2", "--trials", "1000", "--seed", "1"
    )
    assert code == 0
    assert record["status"] == "ok"
    assert record["results"]["exact"] is None
    assert "1/2" in record["results"]["note"]


def test_walk_with_decimal_p_skips_exact_comparison(capsys):
    code, record, _ = run_json(
        capsys, "walk", "--m", "3", "--p", "0.4", "--trials", "1000", "--seed", "2"
    )
    assert code == 0
    assert record["results"]["p_mode"] == "decimal"
    assert record["results"]["exact"] is None
    assert "decimal" in record["results"]["note"]


def test_walk_two_nodes_mean_length_is_exactly_one(capsys):
    code, record, _ = run_json(
        capsys, "walk", "--m", "2", "--p", "0.3", "--trials", "1000", "--seed", "1"
    )
    assert code == 0
    assert record["results"]["mean_hit_len"] == 1.0


def test_walk_csv_carries_the_same_statistics(capsys):
    args = ("walk", "--m", "3", "--p", "1/3", "--trials", "5000", "--seed", "11")
    _, record, _ = run_json(capsys, *args)
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = {row["field"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert float(rows["hit_prob"]) == record["results"]["hit_prob"]
    assert int(rows["hits_right"]) == record["results"]["hits_right"]
    assert rows["exact_hit_prob"] == "3/7"


TRUNCATION_NOTE = "run unreliable: some trials hit the max_steps cap"


@pytest.mark.parametrize(
    "p, max_steps, counts",
    [("1/2", "900", (973, 25, 2)), ("2/5", "20", (613, 0, 387))],
    ids=["one-half", "exact"],
)
def test_truncated_walk_carries_the_truncation_note(capsys, p, max_steps, counts):
    args = ("walk", "--m", "40", "--p", p, "--trials", "1000",
            "--max-steps", max_steps, "--seed", "1")
    code, record, _ = run_json(capsys, *args)
    assert code == 0
    results = record["results"]
    assert (results["hits_right"], results["hits_left"], results["truncated"]) == counts
    # the truncation note stands in for the note on a null exact field
    assert results["note"] == TRUNCATION_NOTE
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = {row["field"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert rows["note"] == TRUNCATION_NOTE
    assert int(rows["truncated"]) == counts[2]
    exact = results["exact"]
    if p == "1/2":
        assert exact is None
        assert not any(field.startswith("exact") for field in rows)
    else:
        expected = str(walk.hit_probability(40, Fraction(2, 5)))
        assert exact["hit_prob"] == rows["exact_hit_prob"] == expected
        # every absorbed walk hit m, so the estimate has no spread
        assert results["hit_prob"] == 1.0 and results["hit_prob_se"] == 0.0
        assert exact["z_hit_prob"] is None  # JSON writes the infinite z-score as null
        assert rows["exact_z_hit_prob"] == "inf"


@pytest.mark.parametrize(
    "args, counts, z_scores",
    [
        # every trial truncated: both estimates and their errors are NaN
        (("--m", "5", "--p", "1/1000", "--trials", "10", "--max-steps", "1", "--seed", "1"),
         (0, 0, 10), ("nan", "nan")),
        # one right hit: its length is the mean, whose standard error is NaN
        (("--m", "2", "--p", "1/3", "--trials", "3", "--seed", "3"), (1, 2, 0), ("0.0", "nan")),
    ],
    ids=["all-truncated", "one-right-hit"],
)
def test_a_nan_estimate_has_a_nan_z_score(capsys, args, counts, z_scores):
    code, record, _ = run_json(capsys, "walk", *args)
    assert code == 0
    results = record["results"]
    assert (results["hits_right"], results["hits_left"], results["truncated"]) == counts
    assert results["mean_hit_len_se"] is None
    exact = results["exact"]
    assert [exact["z_hit_prob"], exact["z_mean_hit_len"]] == [
        None if z == "nan" else float(z) for z in z_scores
    ]
    code, out, _ = run_cli(capsys, "walk", *args, "--format", "csv")
    assert code == 0
    rows = {row["field"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert (rows["exact_z_hit_prob"], rows["exact_z_mean_hit_len"]) == z_scores


def test_hpoly_json_and_csv(capsys):
    code, record, _ = run_json(capsys, "hpoly", "--m", "7")
    assert code == 0
    assert record["results"]["coeffs"] == ["1", "-5", "6", "-1"]
    assert record["results"]["degree"] == 3
    code, out, _ = run_cli(capsys, "hpoly", "--m", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["coeff"] for row in rows] == ["1", "-3", "1"]


def test_hpoly_base_case(capsys):
    _, record, _ = run_json(capsys, "hpoly", "--m", "1")
    assert record["results"]["coeffs"] == ["1"]


WALK_DEFAULTS = {"seed": 0, "max_steps": 10 ** 7}

# 1/10^400 and 1 - 1/10^30, in the lowest terms the record echoes
P_ROUNDS_TO_0 = "1/1" + "0" * 400
P_ROUNDS_TO_1 = "9" * 30 + "/1" + "0" * 30
# a --trials and a --p numerator past the float range
PAST_FLOATS = "1" + "0" * 400

# argv -> the parameters an ok record of the same flags would echo
DOMAIN_ERRORS = {
    ("table", "--n", "-1", "--kmax", "5"): {"n": -1, "kmax": 5},
    ("table", "--n", "3", "--kmax", "-2"): {"n": 3, "kmax": -2},
    ("hpoly", "--m", "0"): {"m": 0},
    ("walk", "--m", "1", "--p", "1/3", "--trials", "10"):
        {"m": 1, "p": "1/3", "trials": 10, **WALK_DEFAULTS},
    ("walk", "--m", "3", "--p", "3/2", "--trials", "10"):
        {"m": 3, "p": "3/2", "trials": 10, **WALK_DEFAULTS},
    # --n has no ceiling, and a huge one is refused at once for its kmax
    ("table", "--n", PAST_FLOATS, "--kmax", "-1"): {"n": 10 ** 400, "kmax": -1},
    # input ceilings, refused before anything is allocated
    ("table", "--n", "3", "--kmax", str(10 ** 9)): {"n": 3, "kmax": 10 ** 9},
    ("hpoly", "--m", str(MAX_HPOLY_M + 1)): {"m": MAX_HPOLY_M + 1},
    ("walk", "--m", "3", "--p", "1/3", "--trials", str(10 ** 9)):
        {"m": 3, "p": "1/3", "trials": 10 ** 9, **WALK_DEFAULTS},
    # a negative verify bound would otherwise pass an empty grid
    ("verify", "--n-max", "-1", "--k-max", "5"): {"n_max": -1, "k_max": 5},
    ("verify", "--n-max", "3", "--k-max", "-1"): {"n_max": 3, "k_max": -1},
    # the verify ceilings
    ("verify", "--n-max", str(MAX_VERIFY_N + 1), "--k-max", "5"):
        {"n_max": MAX_VERIFY_N + 1, "k_max": 5},
    ("verify", "--n-max", "3", "--k-max", str(10 ** 9)): {"n_max": 3, "k_max": 10 ** 9},
    # exact rationals of about m * log2(3) bits each at this m
    ("walk", "--m", str(10 ** 11), "--p", "1/3", "--trials", "1"):
        {"m": 10 ** 11, "p": "1/3", "trials": 1, **WALK_DEFAULTS},
    # below the --m ceiling, but exact rationals of about m * 10 bits
    ("walk", "--m", "200000", "--p", "999/1000", "--trials", "1"):
        {"m": 200000, "p": "999/1000", "trials": 1, **WALK_DEFAULTS},
    # below both ceilings, but about 3.2e11 trial-steps
    ("walk", "--m", "20000", "--p", "1/2", "--trials", "16000000"):
        {"m": 20000, "p": "1/2", "trials": 16000000, **WALK_DEFAULTS},
    # exact p in (0, 1) whose binary64 value is 0 or 1
    ("walk", "--m", "5", "--p", P_ROUNDS_TO_0, "--trials", "10"):
        {"m": 5, "p": P_ROUNDS_TO_0, "trials": 10, **WALK_DEFAULTS},
    ("walk", "--m", "5", "--p", P_ROUNDS_TO_1, "--trials", "10"):
        {"m": 5, "p": P_ROUNDS_TO_1, "trials": 10, **WALK_DEFAULTS},
}


@pytest.mark.parametrize("argv", list(DOMAIN_ERRORS))
def test_domain_errors_exit_with_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    record = json.loads(out)
    assert record["status"] == "error"
    assert record["parameters"] == DOMAIN_ERRORS[argv]


def test_ceilings_admit_the_largest_documented_inputs():
    assert MAX_TABLE_KMAX >= 4000
    assert MAX_HPOLY_M >= 20000
    assert MAX_WALK_M >= 2000
    assert MAX_VERIFY_N >= 100
    assert MAX_VERIFY_K >= 4000
    parser = cli._build_parser()
    for argv in ADMITTED_WALKS:
        cli._check_walk_ceilings(parser.parse_args(argv))


def ruin_duration(m, p):
    """Expected steps from m-1 to 0 or m, from the first-step equations in exact rationals.

    D_0 = D_m = 0 and D_i = 1 + p D_{i+1} + (1-p) D_{i-1}.  With D_1 left
    unknown, each D_i is a + b * D_1; D_m = 0 then fixes D_1.
    """
    q = 1 - p
    prev, cur = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))
    rows = [prev, cur]
    for _ in range(1, m):
        prev, cur = cur, ((cur[0] - 1 - q * prev[0]) / p, (cur[1] - q * prev[1]) / p)
        rows.append(cur)
    d1 = -rows[m][0] / rows[m][1]
    return rows[m - 1][0] + rows[m - 1][1] * d1


@pytest.mark.parametrize(
    "p", [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(999, 1000), 0.5 + 1e-7]
)
def test_expected_walk_steps_is_the_gamblers_ruin_duration(p):
    for m in (2, 3, 8, 40, 150):
        expected = float(ruin_duration(m, Fraction(p)))
        assert cli._expected_walk_steps(m, float(p)) == pytest.approx(expected, rel=1e-9)
    assert math.isfinite(cli._expected_walk_steps(MAX_WALK_M, float(p)))


# the benchmark's walk command lines, and the walks the README runs or measures
ADMITTED_WALKS = [
    ["walk", "--m", m, "--p", p, "--trials", trials, "--seed", "1", "--max-steps", str(10 ** 7)]
    for m, p, trials in [
        ("2", "1/3", "1000"),
        ("150", "1/2", "4000"),
        ("2000", "2/5", "200"),
        ("3", "1/3", "4000000"),
        ("8", "2/5", "2000000"),
    ]
] + [
    ["walk", "--m", "3", "--p", "1/3", "--trials", "1000000", "--seed", "42"],
    ["walk", "--m", "3", "--p", "1/3", "--trials", "16000000", "--seed", "5"],
    ["walk", "--m", str(MAX_WALK_M), "--p", "2/5", "--trials", "1"],
] + [
    # the runs that measured the work ceiling
    ["walk", "--m", m, "--p", p, "--trials", trials, "--seed", "5"]
    for m, p, trials in [
        ("1000", "1/2", "1501501"),
        ("3000", "1/2", "500166"),
        ("300", "1/2", "5016722"),
        ("3", "1/3", "699999999"),
        ("2", "1/3", "1499999999"),
    ]
] + [["walk", "--m", "1000", "--p", "1/2", "--trials", "1500000000", "--max-steps", "1", "--seed", "5"]]


# where the command looks each patched function up when it runs
PATCH_SITES = {"count_table": cli, "simulate": walk}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "target, exc, argv, params",
    [
        ("count_table", DivisibilityError("coefficient 7 at k=1 is not divisible by 3"),
         ("table", "--n", "2", "--kmax", "4"), {"n": 2, "kmax": 4}),
        ("count_table", DivisibilityError("coefficient 7 at k=1 is not divisible by 3"),
         ("verify", "--n-max", "1", "--k-max", "2"), {"n_max": 1, "k_max": 2}),
        ("simulate", AssertionError("even-length success at step 4"),
         ("walk", "--m", "3", "--p", "1/3", "--trials", "10", "--seed", "5"),
         {"m": 3, "p": "1/3", "trials": 10, "seed": 5, "max_steps": 10 ** 7}),
    ],
)
def test_defects_exit_with_three(capsys, monkeypatch, target, exc, argv, params):
    monkeypatch.setattr(PATCH_SITES[target], target, _raise(exc))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DEFECT == 3
    assert err.startswith("defect:")
    assert str(exc) in err
    record = json.loads(out)
    assert record["status"] == "defect"
    assert record["parameters"] == params
    assert str(exc) in record["results"]["error"]


def test_defect_record_in_csv(capsys, monkeypatch):
    monkeypatch.setattr(walk, "simulate", _raise(AssertionError("even-length success at step 4")))
    code, out, err = run_cli(
        capsys, "walk", "--m", "3", "--p", "1/3", "--trials", "10", "--format", "csv"
    )
    assert code == 3
    assert err.startswith("defect:")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["error"]
    assert "even-length success at step 4" in rows[1][0]


@needs_fork
def test_negative_kmax_of_a_sweep_row_is_refused_before_any_fork(capsys, forks):
    # a sweep row forks on two CPUs, so a check left to the child would
    # fail there and read as a defect
    code, record, err = run_json(capsys, "table", "--n", "100", "--kmax", "-1")
    assert forks == []
    assert code == 2
    assert err == "error: kmax must be nonnegative, got -1\n"
    assert record["status"] == "error"
    assert record["parameters"] == {"n": 100, "kmax": -1}
    assert record["results"] == {"error": "kmax must be nonnegative, got -1"}


@needs_fork
def test_a_failed_sweep_child_is_a_defect(capsys, monkeypatch, forks):
    # the first sweep runs in the child, and fails there after three terms
    sweep = genfunc.sweep_height_poly

    def faulty(series, m, kmax):
        for k, term in enumerate(sweep(series, m, kmax)):
            if k == 3:
                child_fault("raises")
            yield term

    monkeypatch.setattr(genfunc, "sweep_height_poly", faulty)
    code, record, err = run_json(capsys, "table", "--n", "100", "--kmax", "60")
    assert forks == [1]
    assert code == EXIT_DEFECT == 3
    message = "ChildProcessError: the sweep's child process ended with wait status 256"
    assert err.startswith(f"defect: {message}")
    assert record["status"] == "defect"
    assert record["parameters"] == {"n": 100, "kmax": 60}
    assert record["results"]["error"].startswith(message)


@needs_fork
@pytest.mark.parametrize("fault, status", CHILD_FAULTS)
def test_a_failed_walk_child_is_a_defect(capsys, monkeypatch, forks, fault, status):
    # the upper half runs in the child, which meets the fault after writing
    # its truncated count and no (length, count) pair
    outcome = walk._outcome

    def faulty(cfg, first, last):
        yield next(outcome(cfg, first, last))
        child_fault(fault)

    monkeypatch.setattr(walk, "_outcome", faulty)
    trials = walk._POOL + 1
    code, record, err = run_json(capsys, "walk", "--m", "3", "--p", "1/3", "--trials", str(trials))
    assert forks == [1]
    assert code == EXIT_DEFECT == 3
    message = (
        f"ChildProcessError: the walk's child process ended with wait status {status} "
        "after writing a stream cut short"
    )
    assert err == f"defect: {message}\n"
    assert record["command"] == "walk"
    assert record["status"] == "defect"
    assert record["parameters"] == {"m": 3, "p": "1/3", "trials": trials, "seed": 0, "max_steps": 10 ** 7}
    assert record["results"] == {"error": message}


@needs_fork
@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "100", "--kmax", "2000"),
        ("walk", "--m", "3", "--p", "1/3", "--trials", "70000"),
        ("verify", "--n-max", "20", "--k-max", "300"),
    ],
    ids=["table", "walk", "verify"],
)
def test_a_pipe_that_fails_gives_the_record_of_one_process(capsys, monkeypatch, forks, argv):
    def no_descriptor_to_spare():
        raise OSError(errno.EMFILE, "Too many open files")

    def run(*argv):
        code, out, err = run_cli(capsys, *argv)
        return code, without_elapsed(out), err

    with monkeypatch.context() as shut:
        shut.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_process = run(*argv)
    monkeypatch.setattr(os, "pipe", no_descriptor_to_spare)
    assert run(*argv) == one_process
    assert one_process[0] == 0
    assert forks == []


def planted_dp(monkeypatch, cells) -> list[int]:
    """Plant a DP count one too large at each (n, k) of `cells`, and return
    the list of the rows that this process builds."""
    built = []

    def one_off(n, kmax):
        built.append(n)
        row = oracle.count_row_dp(n, kmax)
        for bad_n, bad_k in cells:
            if n == bad_n:
                row[bad_k] += 1
        return row

    monkeypatch.setattr(cli, "count_row_dp", one_off)
    return built


# With the split open, --n-max 4 leaves rows 0..3 here and row 4 to the
# child (rows 0..3 hold 10 of the 15 units of work, rows 0..2 only 6), and
# --n-max 20 rows 0..14 here and 15..20 there.  (1, 3) and (15, 3) are
# cells the brute force covers, (4, 15) and (20, 300) are past its guard,
# the first of them on the first order it leaves out.
@needs_fork
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "n_max, k_max, here, planted",
    [
        (4, 16, 4, ()),
        (4, 16, 4, ((1, 3), (4, 15))),
        (20, 300, 15, ()),
        (20, 300, 15, ((15, 3), (3, 300), (20, 300))),
    ],
    ids=["ok", "mismatch", "grid-ok", "grid-mismatch"],
)
def test_a_split_verify_gives_the_record_of_one_process(
    capsys, monkeypatch, forks, fmt, n_max, k_max, here, planted
):
    argv = ("verify", "--n-max", str(n_max), "--k-max", str(k_max), "--format", fmt)
    built = planted_dp(monkeypatch, planted)
    with monkeypatch.context() as shut:
        shut.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, out, err = run_cli(capsys, *argv)
    assert forks == []
    assert built == list(range(n_max + 1))
    built.clear()
    split = run_cli(capsys, *argv)
    assert forks == [1]
    assert built == list(range(here))  # the rest in the child
    assert (split[0], without_elapsed(split[1]), split[2]) == (code, without_elapsed(out), err)
    assert code == (1 if planted else 0)
    if fmt == "json":
        mismatches = json.loads(out)["results"]["mismatches"]
        assert [(mm["n"], mm["k"]) for mm in mismatches] == sorted(planted)
    else:
        assert [row[:2] for row in csv.reader(io.StringIO(out))][1:] == [
            [str(n), str(k)] for n, k in sorted(planted)
        ]


@needs_fork
@pytest.mark.parametrize("fault, status", CHILD_FAULTS)
def test_a_failed_verify_child_is_a_defect(capsys, monkeypatch, forks, fault, status):
    # the upper band, row 4, runs in the child, which writes the n of a
    # first mismatched cell and meets the fault there
    cells = cli._mismatched_cells

    def faulty(n_min, n_max, k_max):
        if n_min == 0:
            yield from cells(n_min, n_max, k_max)
        else:
            yield n_min
            child_fault(fault)

    monkeypatch.setattr(cli, "_mismatched_cells", faulty)
    code, record, err = run_json(capsys, "verify", "--n-max", "4", "--k-max", "16")
    assert forks == [1]
    assert code == EXIT_DEFECT
    message = (
        f"ChildProcessError: the verify band's child process ended with wait status {status} "
        "after writing a stream cut short"
    )
    assert err == f"defect: {message}\n"
    assert record["status"] == "defect"
    assert record["parameters"] == {"n_max": 4, "k_max": 16}
    assert record["results"] == {"error": message}


@needs_fork
def test_a_lower_band_that_raises_kills_and_reaps_the_child(capsys, monkeypatch, forks):
    # the child is still on its rows when this process gives up; the
    # autouse fixture of conftest.py fails the test if it is left unreaped
    parent = os.getpid()

    def lower_band_fails(n, kmax):
        if os.getpid() == parent:
            raise AssertionError("injected fault in the lower band")
        return oracle.count_row_dp(n, kmax)

    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    verify, seen = cli._cmd_verify, []

    def reaped_on_the_way_out(args):
        try:
            return verify(args)
        finally:  # as the error leaves verify, before anything collects it
            seen.append(list(statuses))

    monkeypatch.setattr(cli, "count_row_dp", lower_band_fails)
    monkeypatch.setattr(os, "waitpid", recorded)
    monkeypatch.setattr(cli, "_cmd_verify", reaped_on_the_way_out)
    code, record, _ = run_json(capsys, "verify", "--n-max", "100", "--k-max", "1000")
    assert forks == [1]
    assert code == EXIT_DEFECT
    assert record["results"] == {"error": "AssertionError: injected fault in the lower band"}
    assert seen == [[signal.SIGKILL]]  # killed, not waited out


@needs_fork
def test_verify_bands_run_count_table_in_one_process_each(capsys, forks):
    # count_table forks on every sweep row of a lone process, but this
    # process's band, rows 0..71, holds the sweep rows 47..71, and forks
    # none of them
    assert run_json(capsys, "verify", "--n-max", "100", "--k-max", "50")[0] == 0
    assert forks == [1]


@needs_fork
def test_one_row_or_one_cpu_runs_verify_in_one_process(capsys, monkeypatch, forks):
    # one row leaves the child no band, even on two CPUs
    assert run_json(capsys, "verify", "--n-max", "0", "--k-max", "300")[0] == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_json(capsys, "verify", "--n-max", "20", "--k-max", "300")[0] == 0
    assert forks == []


@needs_fork
@pytest.mark.parametrize(
    "n_max, k_max, forked",
    # one and two rows leave the child no band; three rows or more fork
    [(0, 0, []), (1, 300, []), (2, 100, [1]), (10, 100, [1]), (15, 100, [1]), (20, 300, [1])],
    ids=["probe", "two-rows", "2-100", "10-100", "15-100", "verify-grid"],
)
def test_a_second_band_lets_verify_fork_and_the_probe_stays_here(
    capsys, forks, n_max, k_max, forked
):
    assert run_json(capsys, "verify", "--n-max", str(n_max), "--k-max", str(k_max))[0] == 0
    assert forks == forked


def bench_walk(m: int, p: str, trials: int, seed: int) -> tuple[str, ...]:
    """perfbench/run.py's walk_argv."""
    return ("walk", "--m", str(m), "--p", p, "--trials", str(trials),
            "--seed", str(seed), "--max-steps", str(10 ** 7))


# Every command line of the benchmark's set-up probes and of one round of
# each of its four workloads, copied from perfbench/run.py's probe_argvs,
# counts_round, verify_round, tail_round and bulk_round at --seed 1, with
# the forks each makes on two CPUs.
BENCHMARK_FORKS = [
    pytest.param(("verify", "--n-max", "0", "--k-max", "0"), [], id="probe-verify"),
    pytest.param(bench_walk(2, "1/3", 1000, 1), [], id="probe-walk"),
    pytest.param(("table", "--n", "10", "--kmax", "2000"), [], id="counts-10-2000"),
    pytest.param(("table", "--n", "100", "--kmax", "4000"), [1], id="counts-100-4000"),
    pytest.param(("table", "--n", "1000", "--kmax", "2000"), [1], id="counts-1000-2000"),
    pytest.param(("hpoly", "--m", "3000"), [], id="counts-hpoly-3000"),
    pytest.param(("verify", "--n-max", "20", "--k-max", "300"), [1], id="verify-grid"),
    pytest.param(bench_walk(2000, "2/5", 200, 1), [], id="tail-2000"),
    *(
        pytest.param(bench_walk(150, "1/2", 4000, 1000 + i), [], id=f"tail-150-{i}")
        for i in range(1, 7)
    ),
    pytest.param(bench_walk(3, "1/3", 4_000_000, 1), [1], id="bulk-3"),
    pytest.param(bench_walk(8, "2/5", 2_000_000, 1), [1], id="bulk-8"),
]


@needs_fork
@pytest.mark.parametrize("argv, forked", BENCHMARK_FORKS)
def test_the_benchmark_forks_where_its_work_has_two_parts(capsys, forks, argv, forked):
    assert run_cli(capsys, *argv)[0] == 0
    assert forks == forked


def processes_with(marker: str) -> list[int]:
    """The processes whose environment holds `marker`, read from /proc."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if marker.encode() in f.read():
                    found.append(int(pid))
        except OSError:  # gone, or not ours
            pass
    return found


def read_then_close(argv, size: int) -> tuple[bytes, int, list[int], bytes]:
    """`dyckwalk <argv> | head -c <size>`: what the reader got, the exit code,
    any process still holding the run's marker, and stderr."""
    marker = f"DYCKWALK_TEST_MARKER={os.getpid()}.{id(object())}"
    name, value = marker.split("=")
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyckwalk", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(_child_env(), **{name: value}),
    )
    try:
        head = proc.stdout.read(size)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        left = processes_with(marker)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return head, code, left, err


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc to look for processes in")
def test_pipelined_table_read_by_head_exits_141_and_leaves_no_process():
    # dyckwalk table --n 1000 --kmax 2000 | head -c 100; the row forks on
    # two CPUs, and its child inherits the marker
    head, code, left, err = read_then_close(("table", "--n", "1000", "--kmax", "2000"), 100)
    assert len(head) == 100
    assert code == EXIT_BROKEN_PIPE
    assert left == []
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc to look for processes in")
def test_a_reader_gone_in_the_middle_of_a_streamed_record_gives_141():
    # the record of hpoly --m 3000 is about 0.68 MB; the reader takes its
    # first 4 KiB, so the broken pipe comes while json writes the coefficients
    head, code, left, err = read_then_close(("hpoly", "--m", "3000"), 4096)
    assert len(head) == 4096
    assert code == EXIT_BROKEN_PIPE
    assert left == []
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "2"),
        ("walk", "--m", "3", "--p", "nonsense", "--trials", "10"),
        ("frobnicate",),
        (),
    ],
)
def test_usage_errors_exit_with_two(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_zero_denominator_is_named(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["walk", "--m", "3", "--p", "1/0", "--trials", "10"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --p: cannot parse probability '1/0': zero denominator\n")


def test_max_steps_default_is_the_walk_configs(capsys):
    default = walk.WalkConfig.__dataclass_fields__["max_steps"].default
    args = cli._build_parser().parse_args(["walk", "--m", "3", "--p", "1/3", "--trials", "1"])
    assert args.max_steps == default
    with pytest.raises(SystemExit):
        main(["walk", "--help"])
    assert f"per-trial step cap (default {default})" in " ".join(capsys.readouterr().out.split())


def _child_env():
    """The environment of a child interpreter that imports this dyckwalk."""
    src = str(Path(dyckwalk.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("kmax", ["5", "2000"])
def test_closed_stdout_pipe_exits_without_a_traceback(kmax):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dyckwalk", "table", "--n", "10", "--kmax", kmax],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


# Stand-ins for cli's routes, by the name each replaces: a wrong DP cell
# gives a mismatch, a failed 2k+1 check a defect.
ROUTE_FAULTS = """
from dyckwalk import oracle
from dyckwalk.genfunc import DivisibilityError

def count_row_dp(n, kmax):
    row = oracle.count_row_dp(n, kmax)
    row[-1] += n == 1
    return row

def count_table(n, kmax):
    raise DivisibilityError("coefficient 7 at k=1 is not divisible by 3")
"""
# Runs `python -m dyckwalk` on the command line after its first two
# arguments: the route to replace from ROUTE_FAULTS ("" for none), and
# "closed" to close fd 2 first ("closed-at-start" when it was closed
# before the interpreter started, so sys.stderr is None).  An atexit
# handler writes "teardown" to stderr if the interpreter's normal exit runs.
ENTRY_PROBE = ROUTE_FAULTS + """
import atexit, os, runpy, sys
from dyckwalk import cli
atexit.register(os.write, 2, b"teardown\\n")
route, fd2, *sys.argv[1:] = sys.argv[1:]
assert (sys.stderr is None) == (fd2 == "closed-at-start")
if route:
    setattr(cli, route, globals()[route])
if fd2 == "closed":
    os.close(2)
runpy.run_module("dyckwalk", run_name="__main__")
"""


def entry_process(route: str, argv, fd2="open", stderr=subprocess.PIPE):
    command = [sys.executable, "-c", ENTRY_PROBE, route, fd2, *argv]
    if fd2 == "closed-at-start":  # as a shell's `2>&-` starts it
        command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
    return subprocess.run(
        command,
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=_child_env(),
        timeout=60,
    )


def entry_in_process(capsys, monkeypatch, route: str, argv) -> tuple[int, str, str]:
    """What entry_process gives for the same command run by main in this
    process, with elapsed_ms dropped from the record."""
    if route:
        faults = {}
        exec(ROUTE_FAULTS, faults)
        monkeypatch.setattr(cli, route, faults[route])
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, without_elapsed(captured.out), captured.err


ERROR_ARGV = ("table", "--n", "1", "--kmax", "99999")
SPLIT_WALK = ("walk", "--m", "3", "--p", "1/3", "--trials", "70000")
DEFECT_ARGV = ("table", "--n", "2", "--kmax", "4")


@pytest.mark.parametrize(
    "route, argv, code, teardown",
    [
        ("", ("table", "--n", "2", "--kmax", "6"), 0, False),
        ("", ("hpoly", "--m", "5", "--format", "csv"), 0, False),
        ("", ("walk", "--m", "3", "--p", "1/3", "--trials", "100"), 0, False),
        ("", ERROR_ARGV, 2, False),
        ("count_row_dp", ("verify", "--n-max", "2", "--k-max", "4"), 1, False),
        ("count_table", DEFECT_ARGV, 3, False),
        ("count_table", (*DEFECT_ARGV, "--format", "csv"), 3, False),
        # argparse's SystemExit leaves through the interpreter's own exit
        ("", ("table", "--n", "2"), 2, True),
    ],
    ids=["ok", "ok-csv", "ok-walk", "error", "mismatch", "defect", "defect-csv", "usage"],
)
def test_every_exit_through_the_entry_point(capsys, monkeypatch, route, argv, code, teardown):
    proc = entry_process(route, argv)
    expected = entry_in_process(capsys, monkeypatch, route, argv)
    assert expected[0] == code
    assert (proc.returncode, without_elapsed(proc.stdout.decode()), proc.stderr.decode()) == (
        code, expected[1], expected[2] + "teardown\n" * teardown
    )


@pytest.mark.parametrize("stderr", ["pipe", "closed", "closed-at-start"])
@pytest.mark.parametrize(
    "route, argv, code",
    [
        ("", ("table", "--n", "2", "--kmax", "6"), 0),
        ("", ERROR_ARGV, 2),
        ("count_table", DEFECT_ARGV, 3),
        ("count_table", (*DEFECT_ARGV, "--format", "csv"), 3),
        # with sys.stderr None, argparse's usage text would go to stdout
        ("", ("table", "--n", "2"), 2),
    ],
    ids=["ok", "error", "defect", "defect-csv", "usage"],
)
def test_a_closed_stderr_loses_only_the_status_line(capsys, monkeypatch, stderr, route, argv, code):
    if stderr != "pipe":
        proc = entry_process(route, argv, fd2=stderr)
    else:  # a pipe whose reader has gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = entry_process(route, argv, stderr=write_end)
        finally:
            os.close(write_end)
    expected = entry_in_process(capsys, monkeypatch, route, argv)
    assert (proc.returncode, without_elapsed(proc.stdout.decode())) == (code, expected[1])


@pytest.mark.parametrize(
    "argv",
    [("table", "--n", "2", "--kmax", "6"), ERROR_ARGV, ("table", "--n", "2"), SPLIT_WALK],
    ids=["ok", "error", "usage", "split-walk"],
)
def test_a_stdout_closed_at_start_exits_141(argv):
    # as a shell's `>&-` starts it: sys.stdout is None
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "dyckwalk", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


# Calls main with a stdout whose every write fails as a closed pipe's, and
# prints what main gave and whether fd 1 is still the file it was.
BROKEN_STDOUT_CALL = """
import errno, io, os, sys
from dyckwalk.cli import main
class Broken(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")
    def fileno(self):
        return 1
before = os.fstat(1)
sys.stdout = Broken()
try:
    given = main(["table", "--n", "2", "--kmax", "6"])
except BrokenPipeError:
    given = "BrokenPipeError"
after = os.fstat(1)
sys.stdout = sys.__stdout__
print(given, (before.st_dev, before.st_ino) == (after.st_dev, after.st_ino))
"""


def test_main_raises_a_broken_pipe_to_its_caller_and_leaves_fd_1_alone():
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_STDOUT_CALL],
        capture_output=True,
        env=_child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"BrokenPipeError True\n", b"")


def test_a_large_record_read_through_a_pipe_is_whole(capsys):
    argv = ("table", "--n", "10", "--kmax", "2000")
    proc = subprocess.run(
        [sys.executable, "-m", "dyckwalk", *argv], capture_output=True, env=_child_env(), timeout=60
    )
    code, out, err = run_cli(capsys, *argv)
    assert len(proc.stdout) > 10 ** 6
    assert (proc.returncode, without_elapsed(proc.stdout.decode()), proc.stderr.decode()) == (
        code, without_elapsed(out), err
    )


def test_the_console_script_runs_what_python_m_runs():
    package = Path(dyckwalk.__file__).resolve().parent
    tree = ast.parse((package / "__main__.py").read_text())
    (call,) = [node.value for node in tree.body if isinstance(node, ast.Expr)]
    called = {
        (f"dyckwalk.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (alias.asname or alias.name) == call.func.id
    }
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    script = re.search(r'^dyckwalk = "([\w.]+):(\w+)"$', pyproject, flags=re.M).groups()
    assert called == {script}
    assert call.args == call.keywords == []


# Runs the dyckwalk process of its arguments on two CPUs, and prints the
# threads of this process at each fork and the OPENBLAS_NUM_THREADS it has.
THREADS_PROBE = """
import os, sys
from dyckwalk import cli
fork = os.fork
def reporting():
    with open("/proc/self/status") as status:
        threads = [line.split()[1] for line in status if line.startswith("Threads:")]
    print(*threads, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
    return fork()
os.fork, os.sched_getaffinity = reporting, lambda pid: {0, 1}
cli.run()
"""


def threads_at_fork(argv, **env) -> str:
    """What THREADS_PROBE prints on stderr for `argv`, in `env`."""
    child_env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_PROBE, *argv],
        capture_output=True,
        env=dict(child_env, **env),
        timeout=60,
    )
    assert proc.returncode == 0
    return proc.stderr.decode()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.parametrize(
    "argv, printed",
    # the process sets the variable before numpy's import, and every command has it
    [(SPLIT_WALK, "1 1\n"), (("table", "--n", "100", "--kmax", "2000"), "1 1\n")],
    ids=["walk", "table"],
)
def test_a_command_forks_from_one_thread(argv, printed):
    assert threads_at_fork(argv) == printed


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_a_set_blas_thread_count_stands():
    assert threads_at_fork(SPLIT_WALK, OPENBLAS_NUM_THREADS="2").split()[1:] == ["2"]


@pytest.mark.parametrize("value", [None, "2"], ids=["unset", "set"])
def test_walk_leaves_the_environment_as_it_found_it(capsys, monkeypatch, value):
    if value is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    before = dict(os.environ)
    code, _, _ = run_cli(capsys, "walk", "--m", "3", "--p", "1/3", "--trials", "10")
    assert code == 0
    assert dict(os.environ) == before


# Whether each module is loaded once the command has run: the stdlib
# modules behind dataclasses and Fraction, then numpy, last.
PROBED_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "numpy")
NUMPY_PROBE = (
    "import sys; from dyckwalk.cli import main; code = main(sys.argv[1:]); "
    f"print(*(m in sys.modules for m in {PROBED_MODULES!r}), file=sys.stderr); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, imports_numpy",
    [
        (("table", "--n", "2", "--kmax", "6"), False),
        (("hpoly", "--m", "7"), False),
        (("verify", "--n-max", "2", "--k-max", "4"), False),
        (("walk", "--m", "3", "--p", "1/3", "--trials", "10"), True),
    ],
)
def test_only_walk_imports_numpy(argv, imports_numpy):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        capture_output=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    loaded = dict(zip(PROBED_MODULES, proc.stderr.decode().split(), strict=True))
    assert loaded["numpy"] == str(imports_numpy)
    if not imports_numpy:
        assert loaded == dict.fromkeys(PROBED_MODULES, "False")


def test_walk_module_loads_fractions_only_for_type_checking():
    probe = f"import sys, dyckwalk.walk; print(*(m in sys.modules for m in {PROBED_MODULES!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 0
    loaded = dict(zip(PROBED_MODULES, proc.stdout.decode().split(), strict=True))
    assert (loaded["fractions"], loaded["decimal"], loaded["numpy"]) == ("False", "False", "True")


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--m", str(MAX_WALK_M + 1), "--p", "1/3", "--trials", "1"),
        # one step per walk, one trial past the work ceiling
        ("walk", "--m", "2", "--p", "1/3", "--trials", "1500000001"),
        ("walk", "--m", "200000", "--p", "999/1000", "--trials", "1"),
        ("walk", "--m", "20000", "--p", "1/2", "--trials", "16000000"),
        ("walk", "--m", "5", "--p", P_ROUNDS_TO_0, "--trials", "10"),
        ("walk", "--m", "5", "--p", P_ROUNDS_TO_1, "--trials", "10"),
        ("walk", "--m", "3", "--p", "1/3", "--trials", PAST_FLOATS),
    ],
)
def test_walk_ceilings_refuse_before_numpy_loads(argv):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        capture_output=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    *message, imported = proc.stderr.decode().split()
    assert message[0] == "error:"
    assert imported == "False"


@pytest.mark.parametrize(
    "p, rounds_to, digits",
    [(P_ROUNDS_TO_0, 0, (1, 401)), (P_ROUNDS_TO_1, 1, (30, 31))],
    ids=["to-0", "to-1"],
)
def test_exact_p_that_binary64_cannot_resolve_is_named_by_its_size(capsys, p, rounds_to, digits):
    code, _, err = run_cli(capsys, "walk", "--m", "5", "--p", p, "--trials", "10")
    assert code == 2
    assert err == (
        f"error: p rounds to {rounds_to} at the simulator's binary64 resolution; it has "
        f"a {digits[0]}-digit numerator and a {digits[1]}-digit denominator\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("walk", "--m", "3", "--p", "1/3", "--trials", PAST_FLOATS),
            "--trials times the expected steps of a walk, at most --max-steps, "
            f"must be at most {MAX_WALK_WORK:.10g}, got inf",
        ),
        (
            ("walk", "--m", "3", "--p", f"{PAST_FLOATS}/3", "--trials", "10"),
            f"p must lie in (0, 1), got {PAST_FLOATS}/3",
        ),
    ],
    ids=["trials", "p"],
)
def test_integers_past_the_float_range_are_refused_by_name(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert json.loads(out)["results"] == {"error": message}


def test_package_loads_the_walk_names_on_first_use():
    assert dyckwalk.simulate is walk.simulate
    assert dyckwalk.WalkConfig is walk.WalkConfig
    # the names of __all__ that the package does not bind come from walk
    lazy = [name for name in dyckwalk.__all__ if name not in vars(dyckwalk)]
    assert [getattr(dyckwalk, name) for name in lazy] == [getattr(walk, name) for name in lazy]
    with pytest.raises(AttributeError):
        dyckwalk.no_such_name


@pytest.fixture
def default_int_str_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int -> str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    yield
    sys.set_int_max_str_digits(saved)


def test_counts_past_the_int_str_limit_are_printed(capsys, monkeypatch, default_int_str_limit):
    big = 10 ** 5000
    monkeypatch.setattr(cli, "count_table", lambda n, kmax: CountTable(n, kmax, (1, big)))
    code, record, _ = run_json(capsys, "table", "--n", "3", "--kmax", "1")
    assert code == 0
    assert record["status"] == "ok"
    # spelled out, not str(big): main lifts the limit for its own call only
    counts = ["1", "1" + "0" * 5000]
    assert record["results"]["counts"] == counts
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--kmax", "1", "--format", "csv")
    assert code == 0
    assert [row["count"] for row in csv.DictReader(io.StringIO(out))] == counts


class BrokenPipe(io.StringIO):
    """A stdout whose every write fails as a closed pipe's."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("route", ["ok", "error", "broken-pipe"])
def test_main_leaves_the_int_str_limit_as_it_found_it(capsys, monkeypatch, default_int_str_limit, route):
    sys.set_int_max_str_digits(4321)  # a caller's own limit, not the default
    argv = list(ERROR_ARGV if route == "error" else ("table", "--n", "2", "--kmax", "6"))
    if route == "broken-pipe":
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        with pytest.raises(BrokenPipeError):
            main(argv)
    else:
        assert main(argv) == (2 if route == "error" else 0)
    assert sys.get_int_max_str_digits() == 4321


# An n of 100,008 digits, whose str() takes about 0.2 s: formatted again in
# each of the 201 rows, it would hold the CSV for about 40 s.
HUGE_N = "123456789" * 11112


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_huge_n_is_echoed_and_counted_at_kmax(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "dyckwalk", "table", "--n", HUGE_N, "--kmax", "200", "--format", fmt],
        capture_output=True, text=True, env=_child_env(), timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    counts = [str(oracle.catalan(k)) for k in range(201)]
    if fmt == "json":
        record = json.loads(proc.stdout, parse_int=str)  # n is past the int -> str limit
        assert record["status"] == "ok"
        assert record["parameters"] == {"n": HUGE_N, "kmax": "200"}
        assert record["results"] == {"counts": counts}
    else:
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows == [["n", "k", "count"]] + [[HUGE_N, str(k), c] for k, c in enumerate(counts)]


# The CLI contract over typed inputs: any argv the parser accepts ends in
# exactly one record, whose status names the exit code and whose parameters
# echo the flags.  Inputs are drawn to finish or be refused in milliseconds,
# so a ceiling whose own run takes seconds is drawn only one past it.
STATUS_OF_EXIT = {0: "ok", 1: "mismatch", 2: "error"}
SMALL_MAX = 12
HUGE = [10 ** 12, 10 ** 40, 10 ** 400]


def flag_values(ceiling: int, low: int = 0, *, at_ceiling: bool = True):
    """Valid small values half the time; else one below them, one past the
    ceiling, huge values of either sign and, if its run takes milliseconds,
    the ceiling itself."""
    edges = [low - 1, ceiling + 1, *HUGE, *(-v for v in HUGE)] + ([ceiling] if at_ceiling else [])
    return st.one_of(st.integers(low, SMALL_MAX), st.sampled_from(edges))


def accepted_large(value: int, ceiling: int) -> bool:
    return SMALL_MAX < value <= ceiling


@st.composite
def table_flags(draw):
    # --n has no ceiling: a huge n is accepted and works at kmax
    n = draw(st.one_of(st.integers(0, SMALL_MAX), st.sampled_from([-1, *HUGE, *(-v for v in HUGE)])))
    kmax = draw(flag_values(MAX_TABLE_KMAX))
    assume(not (n > SMALL_MAX and accepted_large(kmax, MAX_TABLE_KMAX)))
    return "table", {"n": n, "kmax": kmax}, {}


@st.composite
def verify_flags(draw):
    n_max, k_max = draw(flag_values(MAX_VERIFY_N)), draw(flag_values(MAX_VERIFY_K))
    # each route's row at the k ceiling takes tens of milliseconds
    assume(not (accepted_large(k_max, MAX_VERIFY_K) and n_max > 2))
    assume(not (accepted_large(n_max, MAX_VERIFY_N) and k_max > 16))
    return "verify", {"n-max": n_max, "k-max": k_max}, {}


@st.composite
def hpoly_flags(draw):
    return "hpoly", {"m": draw(flag_values(MAX_HPOLY_M, 1, at_ceiling=False))}, {}


def exact_p(num, den) -> tuple[str, str]:
    return f"{num}/{den}", str(Fraction(num, den))


def p_texts():
    """--p as typed and as the record echoes it: exact, with small or huge
    numerators and denominators, or decimal."""
    digits = st.integers(280, 420)
    return st.one_of(
        st.builds(exact_p, st.integers(-2, 12), st.integers(1, 12)),
        st.builds(exact_p, st.integers(-(10 ** 60), 10 ** 60), st.integers(1, 10 ** 60)),
        # above 1 and past the float range
        st.builds(exact_p, st.integers(10 ** 399, 10 ** 400 - 1), st.integers(1, 12)),
        digits.map(lambda d: exact_p(1, 10 ** d)),  # below 1e-323 binary64 rounds to 0
        digits.map(lambda d: exact_p(10 ** d - 1, 10 ** d)),  # and close to 1, to 1
        st.floats(-1, 2).map(lambda x: (repr(x), str(x))),
    )


# A p whose denominator has 13,288 bits, and the least m that takes m times
# them past the exact-bits ceiling.
MANY_BITS_P = exact_p(10 ** 4000 // 3, 10 ** 4000)
MANY_BITS_M = MAX_WALK_EXACT_BITS // (10 ** 4000).bit_length() + 1


@st.composite
def walk_flags(draw):
    m, (p_text, p_echo) = draw(st.one_of(
        st.tuples(flag_values(MAX_WALK_M, 2, at_ceiling=False), p_texts()),
        st.just((MANY_BITS_M, MANY_BITS_P)),
    ))
    flags = {
        "m": m,
        "p": p_text,
        # HUGE trials go past the work ceiling
        "trials": draw(st.one_of(st.integers(1, 50), st.sampled_from([0, -1, *HUGE]))),
        "seed": draw(st.integers(-(2 ** 70), 2 ** 70)),
        "max-steps": draw(st.one_of(st.integers(1, 50), st.sampled_from([0, -1, 10 ** 7]))),
    }
    return "walk", flags, {"p": p_echo}  # the value of p, not its text


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(table_flags(), verify_flags(), hpoly_flags(), walk_flags()))
def test_every_typed_input_ends_in_one_record(drawn):
    command, flags, echoed = drawn
    # --flag=value, so that a negative value is not read as a flag
    code, out, err = run_in_process([command, *(f"--{k}={v}" for k, v in flags.items())])
    lines = out.splitlines()
    assert len(lines) == 1, out
    record = json.loads(lines[0])
    assert code in STATUS_OF_EXIT
    assert record["status"] == STATUS_OF_EXIT[code], err
    assert record["parameters"] == {k.replace("-", "_"): v for k, v in flags.items()} | echoed
