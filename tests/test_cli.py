"""End-to-end checks of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dyckwalk
from dyckwalk import cli, oracle, walk
from dyckwalk.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DEFECT,
    MAX_HPOLY_M,
    MAX_TABLE_KMAX,
    MAX_TABLE_N,
    MAX_VERIFY_K,
    MAX_VERIFY_N,
    MAX_WALK_M,
    main,
)
from dyckwalk.genfunc import CountTable, DivisibilityError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, record, _ = run_json(capsys, "verify", "--n-max", "3", "--k-max", "16")
    assert code == 0
    assert record["results"]["cells"] == 4 * 17
    assert dp_rows == [(n, 16) for n in range(4)]
    assert sweeps == [(3, 16)]
    assert cells == [] and "count_paths_dp" not in vars(cli)
    # every brute-force order enumerated once, however many bounds ask for it
    info = oracle._maxima_histograms.cache_info()
    assert info.misses == oracle.BRUTEFORCE_MAX_ORDER + 1
    assert info.hits == 4 * (oracle.BRUTEFORCE_MAX_ORDER + 1) - info.misses


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

# argv -> the parameters an ok record of the same flags would echo
DOMAIN_ERRORS = {
    ("table", "--n", "-1", "--kmax", "5"): {"n": -1, "kmax": 5},
    ("table", "--n", "3", "--kmax", "-2"): {"n": 3, "kmax": -2},
    ("hpoly", "--m", "0"): {"m": 0},
    ("walk", "--m", "1", "--p", "1/3", "--trials", "10"):
        {"m": 1, "p": "1/3", "trials": 10, **WALK_DEFAULTS},
    ("walk", "--m", "3", "--p", "3/2", "--trials", "10"):
        {"m": 3, "p": "3/2", "trials": 10, **WALK_DEFAULTS},
    # input ceilings, refused before anything is allocated
    ("table", "--n", str(MAX_TABLE_N + 1), "--kmax", "5"): {"n": MAX_TABLE_N + 1, "kmax": 5},
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
    assert MAX_TABLE_N >= 1000
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
        ("1000", "1/2", "1498501"),
        ("3000", "1/2", "499833"),
        ("300", "1/2", "4983388"),
        ("3", "1/3", "362068965"),
        ("2", "1/3", "500000000"),
    ]
]


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


NUMPY_PROBE = (
    "import sys; from dyckwalk.cli import main; code = main(sys.argv[1:]); "
    "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
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
    assert proc.stderr.decode().split() == [str(imports_numpy)]


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--m", str(MAX_WALK_M + 1), "--p", "1/3", "--trials", "1"),
        # one step per walk, but each trial's admission counts as well
        ("walk", "--m", "2", "--p", "1/3", "--trials", "500000001"),
        ("walk", "--m", "200000", "--p", "999/1000", "--trials", "1"),
        ("walk", "--m", "20000", "--p", "1/2", "--trials", "16000000"),
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


def test_package_loads_the_walk_names_on_first_use():
    assert dyckwalk.simulate is walk.simulate
    assert dyckwalk.WalkConfig is walk.WalkConfig
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
    assert record["results"]["counts"] == ["1", "1" + "0" * 5000]
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--kmax", "1", "--format", "csv")
    assert code == 0
    assert [row["count"] for row in csv.DictReader(io.StringIO(out))] == ["1", str(big)]
