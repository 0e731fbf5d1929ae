"""perfbench/traced.py runs against the package as it stands.

traced.py wraps the package's functions by name and unpacks
series_coeffs' (num, den, kmax) at run time, so a change to either
shows only when it runs; tests/test_surface.py checks the names alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "10", "--kmax", "50"],  # through P_12's coefficients
        ["table", "--n", "60", "--kmax", "50"],  # by the walk sweep
        ["verify", "--n-max", "2", "--k-max", "5"],
    ],
    ids=["table-coefficients", "table-sweep", "verify"],
)
def test_traced_run_spans_series_coeffs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["code"] == 0
    assert summary["problems"] == []
    assert "genfunc.series_coeffs" in {name for name, *_ in summary["spans"]}
