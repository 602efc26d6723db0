"""No engine module reads another module's private attributes.

A read `obj._name`, where obj is not `self` or `cls`, must name
something the reading module defines itself: a function, a class, a
method, or an attribute it assigns. Otherwise one layer leans on the
internals of another, as `self.front._index` in mixing.py would.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trspace"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.AST) -> set[str]:
    """Every name the module binds: defs, classes, assigned names and
    attributes, and attributes set through object.__setattr__."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def _foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """The private attribute reads, off something other than self or
    cls, of names the module does not define, as (line, expression)."""
    tree = ast.parse(source)
    own = _defined_names(tree)
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr) and node.attr not in own
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )


def test_foreign_private_read_reader():
    source = '''
class Engine:
    def __init__(self, front, model):
        self.front = front
        self._rows = {}
        object.__setattr__(self, "_memo", {})

    def _row(self, a):
        return self._rows, self._cache, self.__class__

    def bits(self, other):
        return other._row, other._memo, self.front._index, self.front.__dict__

def check(model):
    return model._row(0), model._leq_fin
'''
    assert _foreign_private_reads(source) == [(12, "self.front._index"), (15, "model._leq_fin")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_privates(path):
    assert _foreign_private_reads(path.read_text()) == []
