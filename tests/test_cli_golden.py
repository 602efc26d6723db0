"""Golden CLI reports: stdout and exit code of fixed invocations, byte for byte.

Each case runs through `cli.main` in process. The recorded stdout lives
in `tests/golden/<slug>.json` and the exit codes in
`tests/golden/exits.json`. When a report changes on purpose, re-record
with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of `tests/golden/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from trspace.cli import main

GOLDEN = Path(__file__).parent / "golden"

# "{out}" stands for a scratch path given to --out; its content must
# equal stdout.
CASES = (
    # README examples
    "canonize ellentuck N=6 --front AU2 --coloring min --oracle",
    "verify-axioms ellentuck N=5",
    "mixing-table fin blocks=3 --coloring union --front AU2",
    "er-number 1 4",
    "canonize fin blocks=4 --front AU1 --coloring minmax --oracle --out {out}",
    # the rest of the benchmark's CLI command set, seeded lines with a
    # fixed seed
    "enumerate-front tree b=2 h=3 --front AU2",
    "transitivity fin blocks=3 --coloring union --front AU2",
    "weak-mixing fin blocks=4 --coloring min --front AU2",
    "lemma-suite ellentuck N=6 --front AU2 --coloring max",
    "lemma-suite fin blocks=4 --front AU2 --coloring min",
    "verify-axioms fin blocks=3",
    "verify-axioms ellentuck N=6",
    "er-number 2 3",
    "canonize fin blocks=3 --front AU2 --coloring random-kernel --oracle --seed 7",
    "canonize tree b=2 h=2 --front AU2 --coloring random-kernel --oracle --seed 7",
    # budget stops
    "er-number 1 4 --max-kernels 50",
    "er-number 2 4 --max-kernels 1000",
    "verify-axioms ellentuck N=4 --max-reducts 3",
    # the tree rule of proper_combination
    "weak-mixing tree b=2 h=2 --coloring constant --front AU3",
)


def slug(line: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", line.replace(" --out {out}", "")).strip("-")


def run_case(line: str, out_path: Path) -> tuple[int, str]:
    argv = [out_path.as_posix() if a == "{out}" else a for a in line.split()]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("line", CASES, ids=slug)
def test_golden_report(line, tmp_path):
    out_path = tmp_path / "run.json"
    code, stdout = run_case(line, out_path)
    exits = json.loads((GOLDEN / "exits.json").read_text())
    assert code == exits[slug(line)]
    assert stdout == (GOLDEN / f"{slug(line)}.json").read_text()
    if "{out}" in line:
        assert out_path.read_text() == stdout


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for line in CASES:
            code, stdout = run_case(line, Path(tmp) / "run.json")
            exits[slug(line)] = code
            (GOLDEN / f"{slug(line)}.json").write_text(stdout)
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n")
