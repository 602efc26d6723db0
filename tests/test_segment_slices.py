"""Initial segments have one home: SpaceModel.restrict.

No engine module cuts an initial segment out of a blocks tuple itself,
as `s.blocks == t.blocks[:len(s)]` would: every other reader asks the
model (restrict, segments), so a space that overrides restrict is read
through its own segments everywhere. Slices that do not start at the
first block, such as FIN's suffix `full.blocks[start - 1:]`, are not
segments and stay allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trspace"

# The one place that may slice blocks from the start, by qualified name.
HOME = {("model.py", "SpaceModel.restrict")}


def _from_start(node: ast.AST) -> bool:
    """node is a slice with no lower bound, or a lower bound of 0."""
    if not isinstance(node, ast.Slice):
        return False
    lower = node.lower
    return lower is None or (isinstance(lower, ast.Constant) and lower.value == 0)


def _segment_slices(source: str) -> list[tuple[int, str, str]]:
    """The slices `<expr>.blocks[:...]` taken from the start, as (line,
    enclosing qualified name, expression)."""
    found: list[tuple[int, str, str]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "blocks" and _from_start(node.slice)
        ):
            found.append((node.lineno, ".".join(scope), ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_segment_slice_reader():
    source = '''
class Space:
    def restrict(self, x, n):
        return x.blocks[:n]

    def suffix(self, start):
        return self.full.blocks[start - 1:], self.full.blocks[-1], self.full.blocks[1:]

def is_prefix(s, t):
    return s.blocks == t.blocks[: len(s.blocks)] or t.blocks[0:1] == s.blocks

def other(rows):
    return rows[:2], rows.items[:3]
'''
    assert _segment_slices(source) == [
        (4, "Space.restrict", "x.blocks[:n]"),
        (10, "is_prefix", "t.blocks[0:1]"),
        (10, "is_prefix", "t.blocks[:len(s.blocks)]"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_restrict_slices_initial_segments(path):
    stray = [
        (line, where, expr) for line, where, expr in _segment_slices(path.read_text())
        if (path.name, where) not in HOME
    ]
    assert stray == []
