"""The package's export list against its table of home modules."""

from __future__ import annotations

import importlib

import pytest

import trspace


def test_all_lists_each_public_import_once():
    assert len(trspace.__all__) == len(set(trspace.__all__))
    assert set(trspace.__all__) == set(trspace._HOME)
    assert sum(map(len, trspace._EXPORTS.values())) == len(trspace._HOME)
    assert set(trspace.__all__) <= set(dir(trspace))


def test_every_name_is_its_home_modules_object():
    for module, names in trspace._EXPORTS.items():
        home = importlib.import_module(f"trspace.{module}")
        for name in names:
            assert getattr(trspace, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from trspace import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(trspace.__all__)
    assert all(namespace[name] is getattr(trspace, name) for name in trspace.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        trspace.nothing
