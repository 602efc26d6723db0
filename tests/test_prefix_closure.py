"""The reducts are closed under prefixes, which A.2's containment path
relies on.

The walk makes each reduct parent.extend(b) with the parent EMPTY or an
earlier reduct, so every prefix of a reduct is EMPTY or a reduct, and
interning makes it the stored reduct itself. The approximations are
then EMPTY and the reducts, and A.2 on a containment order reports
their count without building them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from trspace import EMPTY, build_ellentuck, build_tree, check_axioms
from helpers import ellentuck_instances, fin_instances, tree_instances
from test_relation_layer import LINE_INSTANCES


def _assert_prefix_closed(model):
    reds = model.all_reducts()
    assert model.approximations() == (EMPTY, *reds)
    for y in reds:
        for seg in model.segments(y):
            j = model._bit(seg)
            assert seg is EMPTY or (j is not None and reds[j - 1] is seg), (y, seg)


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_reducts_are_prefix_closed_on_line_instances(name):
    _assert_prefix_closed(LINE_INSTANCES[name]())


@settings(max_examples=25, deadline=None)
@given(model=st.one_of(ellentuck_instances(), fin_instances(), tree_instances()))
def test_reducts_are_prefix_closed_on_drawn_instances(model):
    _assert_prefix_closed(model)


@pytest.mark.parametrize("build", [lambda: build_ellentuck(6), lambda: build_tree(2, 3)],
                         ids=["e6", "tree23"])
def test_a2_on_a_containment_order_builds_no_approximations(build):
    def refuse():
        raise AssertionError("A.2 built the approximations")

    model = build()
    model.approximations = refuse
    assert check_axioms(model, "A2") == check_axioms(build(), "A2")
