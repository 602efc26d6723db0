"""What a run loads: the package imports a layer on first use.

Each case runs in its own interpreter, since the rest of the suite has
already loaded every layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
{setup}
print(json.dumps(sorted(n for n in sys.modules if n == "trspace" or n.startswith("trspace."))))
"""

MAIN = """
from trspace import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
"""


def _loaded(setup: str) -> set[str]:
    code = LOADED.format(src=str(SRC), setup=setup)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
    )
    return {name.removeprefix("trspace.") for name in json.loads(proc.stdout.splitlines()[-1])}


COMMANDS = (
    # (argv, the trspace modules loaded afterwards besides the package)
    (["er-number", "2", "3"], {"cli", "errors", "model", "reportio", "ramsey"}),
    (["verify-axioms", "ellentuck", "N=4"], {"cli", "errors", "model", "reportio", "spaces"}),
    (
        ["canonize", "ellentuck", "N=4", "--front", "AU2", "--coloring", "min", "--oracle"],
        {"cli", "errors", "model", "reportio", "spaces", "fronts", "mixing", "canonize"},
    ),
)


def test_importing_the_package_loads_no_layer():
    assert _loaded("import trspace") == {"trspace"}


@pytest.mark.parametrize(("argv", "modules"), COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_a_command_loads_only_its_layers(argv, modules):
    assert _loaded(MAIN.format(argv=argv)) == {"trspace"} | modules


@pytest.mark.parametrize("setup", [
    "import trspace.canonize, trspace",
    "import trspace.cli, trspace",
    "import trspace; trspace.canonize; import trspace.canonize",
])
def test_canonize_is_the_function_whatever_the_import_order(setup):
    check = "\nassert trspace.canonize is sys.modules['trspace.canonize'].canonize"
    assert "canonize" in _loaded(setup + check + "\nimport trspace.canonize" + check)
