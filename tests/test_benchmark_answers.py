"""The benchmark's answers: one round of each workload at the default
seed, checked against the committed references in perfbench/refs.

Each workload runs in its own interpreter, because the benchmark
re-imports the trspace modules from scratch and the rest of the suite
would see the swapped modules.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

ONE_ROUND = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
jobs, expected, _ = run.setup({workload!r}, 1, repeats=1)
_, failures, _ = run.run_round(jobs, expected)
print(json.dumps({{"jobs": len(jobs), "failures": failures}}))
"""


@pytest.mark.parametrize("workload", ["axioms", "colorings", "cli", "ramsey"])
def test_one_benchmark_round_matches_the_references(workload):
    code = ONE_ROUND.format(bench=str(BENCH), src=str(ROOT / "src"), workload=workload)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["jobs"] > 0
    assert result["failures"] == []
