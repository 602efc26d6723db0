"""A.1, A.2 and A.3 by argument, against the exhaustive search.

A.1 passes by argument under SpaceModel's restrict. A model that reads
its order as the class naming its order hooks defines them (none of
them overridden, on a subclass or on the instance) has an argued order:
containment of piece sets on SpaceModel, unions of blocks on FIN, each
a preorder in which a prefix lies below its reduct. A.3 then passes
without a column, and A.2, under SpaceModel's restrict, once the full
reduct is a reduct above every other, which reads no piece mask. The
search stays the independent slow path: a subclass that re-declares a
hook as a call to super() reads the same order through the search, and
its reports must be the same, stats included.
"""

from __future__ import annotations

import functools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trspace import EllentuckModel, build_ellentuck, build_fin, build_tree, check_axioms
from trspace.model import SpaceModel, _orders_by_containment
from helpers import fin_instances, tree_instances
from test_relation_layer import LINE_INSTANCES

# Each hook, re-declared as a call to SpaceModel's: the same behaviour,
# read as an override.
SAME_HOOKS = {
    "_line": lambda self, a, up: SpaceModel._line(self, a, up),
    "_reducts_above": lambda self, s: SpaceModel._reducts_above(self, s),
    "_reducts_below": lambda self, x: SpaceModel._reducts_below(self, x),
    "_pieces": lambda self, block: SpaceModel._pieces(self, block),
    "_piece_masks": lambda self: SpaceModel._piece_masks(self),
    "restrict": lambda self, x, n: SpaceModel.restrict(self, x, n),
}


class Searching:
    """Re-declares restrict and _line as calls to super(), so the axiom
    checks search."""

    def restrict(self, x, n):
        return super().restrict(x, n)

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
    """No piece mask, no row and no column but the full reduct's was
    built."""
    return model._masks_by_piece is None and not model._rows and set(model._columns) <= {model.full}


def _assert_paths_agree(build):
    for axiom, store in (("A1", "_segments"), ("A2", "_rows"), ("A3", "_columns")):
        fast, slow = build(), searching(build())
        assert check_axioms(fast, axiom) == check_axioms(slow, axiom), axiom
        assert not fast._segments, axiom
        if _orders_by_containment(fast):
            assert _reads_no_lines(fast), axiom
        assert getattr(slow, store), axiom  # the search ran


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_both_paths_agree_on_line_instances(name):
    _assert_paths_agree(LINE_INSTANCES[name])


builds = st.one_of(
    st.integers(min_value=1, max_value=8).map(lambda n: functools.partial(build_ellentuck, n)),
    tree_instances().map(lambda tree: functools.partial(build_tree, tree.b, tree.h)),
    fin_instances().map(
        lambda fin: functools.partial(build_fin, levels=fin.levels, span_cap=fin.span_cap)
    ),
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
    assert not model._keeps("restrict") and model._keeps(*SpaceModel._order_hooks)
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
# R bits per reduct, 116 MB for A.2 and 18 MB for A.3 under tracemalloc,
# and A.1's search a segment tuple per reduct, 4.4 MB.

@pytest.mark.parametrize("axiom, bound_mb", [("A1", 1), ("A2", 24), ("A3", 1)])
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
    assert _reads_no_lines(model) and not model._segments
