"""Self-tests of the benchmark: traced counts and answers repeat across
processes, and a wrong reference answer makes jobs fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402

# jobs from the start of each workload's round at the default seed
SLICES = {"axioms": 6, "colorings": 4, "cli": 6, "ramsey": 5}

TRACE_SLICE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
result = run.trace({workload!r}, run.DEFAULT_SEED, limit={limit})
counts = {{k: v for k, v in result["metrics"].items() if isinstance(v, int)}}
print(json.dumps({{"failed": result["failed"], "counts": counts, "answers": result["answers"]}}))
"""


def _traced_slice(workload: str, hash_seed: str) -> dict:
    code = TRACE_SLICE.format(
        bench=str(BENCH), src=str(SRC), workload=workload, limit=SLICES[workload]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_traced_counts_and_answers_repeat(workload):
    first, second = _traced_slice(workload, "1"), _traced_slice(workload, "2")
    assert first["failed"] == 0
    assert any(first["counts"].values())
    assert first["counts"] == second["counts"]
    assert len(first["answers"]) == SLICES[workload]
    assert first["answers"] == second["answers"]


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_wrong_reference_fails_the_job(workload):
    jobs, expected, _ = run.setup(workload, run.DEFAULT_SEED, repeats=1)
    right = run.measure(workload, run.DEFAULT_SEED, 0, refs=expected, limit=1, min_jobs=1)
    assert right["failed"] == 0
    wrong = {**expected, jobs[0].id: {"wrong": True}}
    result = run.measure(workload, run.DEFAULT_SEED, 0, refs=wrong, limit=1, min_jobs=1)
    assert result["failed"] == result["attempted"] > 0
    assert "differs from the reference" in result["failures"][0]
