"""End-to-end checks of the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyckwalk
from dyckwalk import cli
from dyckwalk.cli import EXIT_BROKEN_PIPE, main
from dyckwalk.genfunc import CountTable


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


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "-1", "--kmax", "5"),
        ("table", "--n", "3", "--kmax", "-2"),
        ("hpoly", "--m", "0"),
        ("walk", "--m", "1", "--p", "1/3", "--trials", "10"),
        ("walk", "--m", "3", "--p", "3/2", "--trials", "10"),
    ],
)
def test_domain_errors_exit_with_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    record = json.loads(out)
    assert record["status"] == "error"


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


@pytest.mark.parametrize("kmax", ["5", "2000"])
def test_closed_stdout_pipe_exits_without_a_traceback(kmax):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(dyckwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dyckwalk", "table", "--n", "10", "--kmax", kmax],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


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
