"""Smoke test of a traced benchmark run: its last stdout line is the result,
in strict JSON, with every metric a finite number.

Spans of these runs go to the git-ignored bench/out/.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", ["observables", "dynamics"])
def test_traced_bench_run_prints_a_finite_result(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
