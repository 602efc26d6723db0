"""The package's export list against what `__init__.py` imports."""

from __future__ import annotations

import ast
from pathlib import Path

import trspace


def test_all_lists_each_public_import_once():
    tree = ast.parse(Path(trspace.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(trspace.__all__) == len(set(trspace.__all__))
    assert all(hasattr(trspace, name) for name in trspace.__all__)
    assert public <= set(trspace.__all__)
