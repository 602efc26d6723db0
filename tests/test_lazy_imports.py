"""What a run loads: the package imports a layer on first use.

Each case runs in its own interpreter, since the rest of the suite has
already loaded every layer. The layer order itself is checked from the
source, without importing it.
"""

from __future__ import annotations

import ast
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


# ---------------------------------------------------------------------------
# The layer order, read statically: at module level a layer imports only
# the layers to its left in README's Layout order. Imports inside
# functions (the CLI's per-command imports) and TYPE_CHECKING blocks run
# later or never, so they are not counted.

CHAIN = ("errors", "model", "reportio", "spaces", "fronts", "mixing", "canonize")
MAY_IMPORT = {
    **{name: set(CHAIN[:i]) for i, name in enumerate(CHAIN)},
    "ramsey": {"errors", "model"},
    "cli": {"errors", "model", "reportio"},
    "__init__": set(),
}


def _module_level_imports(source: str) -> set[str]:
    """The trspace modules a module's source imports when it loads."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "trspace":
                names = node.module.split(".")[1:2] or [alias.name for alias in node.names]
                found.update(names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("trspace.")
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_reader():
    source = """
from __future__ import annotations
import json
from typing import TYPE_CHECKING
from .errors import ParameterError
from . import model
import trspace.spaces
from trspace.fronts import Front
if TYPE_CHECKING:
    from .canonize import InnerMap
def run():
    from .mixing import mixing_table
"""
    assert _module_level_imports(source) == {"errors", "model", "spaces", "fronts"}


def test_each_layer_imports_only_layers_to_its_left():
    paths = sorted((SRC / "trspace").glob("*.py"))
    assert {p.stem for p in paths} == set(MAY_IMPORT)
    for path in paths:
        extra = _module_level_imports(path.read_text()) - MAY_IMPORT[path.stem]
        assert not extra, f"{path.stem} imports {sorted(extra)} at module level"
