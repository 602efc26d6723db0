"""A.2 and A.3 on a containment order, against the exhaustive search.

A model that reads its order as SpaceModel does (none of the order
hooks overridden, on its class or on the instance) orders its reducts by
containment of piece sets, a preorder by construction. A.3 then passes
without a column, and A.2, under SpaceModel's restrict, after a linear
check on the segments. The search stays the independent slow path: a
subclass that re-declares a hook as a call to super() reads the same
order through the search, and its reports must be the same, stats
included.
"""

from __future__ import annotations

import functools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trspace import EllentuckModel, build_ellentuck, build_tree, check_axioms
from trspace.model import _ORDER_HOOKS, SpaceModel, _orders_by_containment
from helpers import ellentuck_instances, tree_instances
from test_relation_layer import LINE_INSTANCES

# Each hook, re-declared as a call to SpaceModel's: the same behaviour,
# read as an override.
SAME_HOOKS = {
    "_line": lambda self, a, up: SpaceModel._line(self, a, up),
    "_reducts_above": lambda self, s: SpaceModel._reducts_above(self, s),
    "_reducts_below": lambda self, x: SpaceModel._reducts_below(self, x),
    "_pieces": lambda self, y: SpaceModel._pieces(self, y),
    "_piece_masks": lambda self: SpaceModel._piece_masks(self),
    "restrict": lambda self, x, n: SpaceModel.restrict(self, x, n),
}


class Searching:
    """Re-declares _line as a call to super(), so the axiom checks search."""

    def _line(self, a, up):
        return super()._line(a, up)


@functools.cache
def _searching_class(cls):
    return type(f"Searching{cls.__name__}", (Searching, cls), {})


def searching(model):
    """A freshly built model, read through the search: its state under a
    subclass of its class that gains Searching."""
    clone = object.__new__(_searching_class(type(model)))
    clone.__dict__.update(vars(model))
    return clone


def _reads_no_lines(model):
    """No row and no column but the full reduct's was built."""
    return not model._rows and set(model._columns) <= {model.full}


def _assert_paths_agree(build):
    for axiom, store in (("A2", "_rows"), ("A3", "_columns")):
        fast, slow = build(), searching(build())
        assert check_axioms(fast, axiom) == check_axioms(slow, axiom), axiom
        if _orders_by_containment(fast):
            assert _reads_no_lines(fast), axiom
        assert getattr(slow, store), axiom  # the search ran


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_both_paths_agree_on_line_instances(name):
    _assert_paths_agree(LINE_INSTANCES[name])


builds = st.one_of(
    st.integers(min_value=1, max_value=8).map(lambda n: functools.partial(build_ellentuck, n)),
    tree_instances().map(lambda tree: functools.partial(build_tree, tree.b, tree.h)),
)


@settings(max_examples=20, deadline=None)
@given(build=builds)
def test_both_paths_agree_on_drawn_instances(build):
    _assert_paths_agree(build)


# ---------------------------------------------------------------------------
# Scope: any order hook overridden, on the class or on the instance, sends
# both checks to the search; an overridden restrict sends A.2 only.

def _overriding(hook, where):
    if where == "class":
        return type("Overriding", (EllentuckModel,), {hook: SAME_HOOKS[hook]})(4)
    model = build_ellentuck(4)
    setattr(model, hook, SAME_HOOKS[hook].__get__(model))
    return model


@pytest.mark.parametrize("hook", sorted(SAME_HOOKS))
@pytest.mark.parametrize("where", ["class", "instance"])
def test_an_overridden_hook_keeps_the_search(hook, where):
    searched = {"A2": True, "A3": hook != "restrict"}
    for axiom in ("A2", "A3"):
        model = _overriding(hook, where)
        report = check_axioms(model, axiom)
        assert report == check_axioms(searching(build_ellentuck(4)), axiom), axiom
        assert _reads_no_lines(model) != searched[axiom], axiom


def test_keeps_asks_for_each_hook_on_class_and_instance():
    model = build_ellentuck(3)
    assert model._keeps(*SAME_HOOKS)
    model.restrict = SAME_HOOKS["restrict"].__get__(model)
    assert not model._keeps("restrict") and model._keeps(*_ORDER_HOOKS)
    assert not searching(build_ellentuck(3))._keeps("_line")


def test_an_overridden_restrict_fills_prefix_masks_through_restrict():
    model = build_ellentuck(4)
    model.restrict = SAME_HOOKS["restrict"].__get__(model)
    s = model.all_reducts()[0]
    assert model.prefix_mask(s) == build_ellentuck(4).prefix_mask(s)
    assert model._restrict_tables


class EvenAtoms(EllentuckModel):
    """Ellentuck on the even atoms only: the order is containment, but the
    full reduct, which holds the odd atoms too, is no reduct."""

    def _extension_blocks(self, s):
        return (b for b in super()._extension_blocks(s) if b.atoms[0] % 2 == 0)


def test_a2_falls_back_to_the_search_when_the_full_reduct_is_no_reduct():
    model = EvenAtoms(6)
    assert model._bit(model.full) is None
    report = check_axioms(model, "A2")
    assert report == check_axioms(searching(EvenAtoms(6)), "A2")
    assert model._rows  # the search ran
    assert check_axioms(model, "A3")["verdict"] == "pass"


# ---------------------------------------------------------------------------
# Memory: on Ellentuck N=14 (16,383 reducts) the search holds one line of
# R bits per reduct, 116 MB for A.2 and 18 MB for A.3 under tracemalloc.

@pytest.mark.parametrize("axiom, bound_mb", [("A2", 24), ("A3", 1)])
def test_containment_path_holds_no_lines_on_e14(axiom, bound_mb):
    model = build_ellentuck(14)
    model.all_reducts()
    tracemalloc.start()
    try:
        report = check_axioms(model, axiom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["verdict"] == "pass"
    assert peak < bound_mb * 2**20, peak
    assert _reads_no_lines(model)
