"""Golden CLI reports: stdout and exit code of fixed invocations, byte for byte.

Each case runs through `cli.main` in process. The recorded stdout lives
in `tests/golden/<slug>.json` and the exit codes in
`tests/golden/exits.json`. When a report changes on purpose, re-record
with

    PYTHONPATH=src python tests/test_cli_golden.py [SLUG ...]

and review the diff of `tests/golden/`. Named slugs re-record only those
cases (an unknown slug is an error); with none, every case is rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import refuse_pairwise_hook
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
    # budget stops, and a budget the arity-one closed form does not spend
    "er-number 1 4 --max-kernels 50",
    "er-number 2 4 --max-kernels 1000",
    "verify-axioms ellentuck N=4 --max-reducts 3",
    # the tree rule of proper_combination
    "weak-mixing tree b=2 h=2 --coloring constant --front AU3",
    # weak mixing's depth orientation: the deeper row comes first twice
    "weak-mixing fin blocks=4 --front AU2 --coloring max",
    # canonize's retry path: three retries then the fallback, one retry
    "canonize fin blocks=4 --front AU2 --coloring union --oracle",
    "canonize fin blocks=4 --front AU3 --coloring union --oracle",
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


def test_golden_reports_without_the_pairwise_hook(monkeypatch, tmp_path):
    # Every command reads the order off the rows and columns only: with
    # each space's pairwise _leq_fin raising, every case still gives its
    # golden exit code and report.
    refuse_pairwise_hook(monkeypatch)
    exits = json.loads((GOLDEN / "exits.json").read_text())
    for line in CASES:
        code, stdout = run_case(line, tmp_path / "run.json")
        assert code == exits[slug(line)], line
        assert stdout == (GOLDEN / f"{slug(line)}.json").read_text(), line


# Interned blocks and approximations hash by identity, so a set of them
# iterates in an order that follows memory addresses. Padding allocated
# before the import moves those addresses; a report that read such an
# order unsorted would differ between the two interpreters.
PADDED_RUN = """
import json, sys
pad = [(i,) * (i % 9 + 1) for i in range({pad})]
sys.path[:0] = [{tests!r}, {src!r}]
from pathlib import Path
from test_cli_golden import CASES, run_case, slug
out = Path({tmp!r}) / "run.json"
print(json.dumps({{slug(line): run_case(line, out) for line in CASES}}))
"""


@pytest.mark.parametrize("pad", [0, 40_000])
def test_golden_reports_do_not_depend_on_addresses(pad, tmp_path):
    here = Path(__file__).resolve().parent
    code = PADDED_RUN.format(pad=pad, tests=str(here), src=str(here.parent / "src"), tmp=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=600,
    )
    runs = json.loads(proc.stdout.splitlines()[-1])
    exits = json.loads((GOLDEN / "exits.json").read_text())
    for line in CASES:
        code, stdout = runs[slug(line)]
        assert code == exits[slug(line)], line
        assert stdout == (GOLDEN / f"{slug(line)}.json").read_text(), line


if __name__ == "__main__":
    import sys
    import tempfile

    by_slug = {slug(line): line for line in CASES}
    unknown = [name for name in sys.argv[1:] if name not in by_slug]
    if unknown:
        sys.exit(f"unknown golden slug(s): {' '.join(unknown)}")
    chosen = sys.argv[1:] or list(by_slug)
    GOLDEN.mkdir(exist_ok=True)
    exits_path = GOLDEN / "exits.json"
    exits = json.loads(exits_path.read_text()) if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in chosen:
            code, stdout = run_case(by_slug[name], Path(tmp) / "run.json")
            exits[name] = code
            (GOLDEN / f"{name}.json").write_text(stdout)
    exits_path.write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n")
