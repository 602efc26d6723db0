"""A cold instance is built in documented order: the walk that
enumerates the reducts emits them sorted and asks the extension hook
once per last block, prefix_mask reads runs of ids
instead of calling restrict, longest_first reads the witness order off
the id order, and FIN builds each union of pieces once. Each fast path
is compared here with the slow form it replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from trspace import EMPTY, Approx, build_ellentuck, build_fin, build_tree
from trspace.model import approx_sort_key, longest_first, witness_sort_key
from trspace.spaces import EllentuckModel

from helpers import fin_instances, tree_instances
from test_relation_layer import LINE_INSTANCES


def dfs_closure(model) -> tuple:
    """Every reduct, as the depth-first closure of EMPTY under the
    one-step extensions inside the full reduct, sorted afterwards."""
    found, stack = [], [EMPTY]
    while stack:
        s = stack.pop()
        for block in model._extension_blocks(s):
            found.append(s.extend(block))
            stack.append(found[-1])
    return tuple(sorted(found, key=approx_sort_key))


def restrict_table_mask(model, s) -> int:
    """prefix_mask(s) read through restrict, one reduct at a time."""
    n = len(s)
    return sum(
        1 << i for i, y in enumerate(model.all_reducts())
        if len(y) >= n and model.restrict(y, n) == s
    )


def assert_cold_build_matches_reference(model):
    assert model.all_reducts() == dfs_closure(model)
    for s in model.approximations():
        assert model.prefix_mask(s) == restrict_table_mask(model, s), s
    # the runs were read, not the table
    assert not model._restrict_tables


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_cold_build_matches_reference(name):
    assert_cold_build_matches_reference(LINE_INSTANCES[name]())


@settings(max_examples=40, deadline=None)
@given(model=fin_instances())
def test_cold_build_matches_reference_on_fin_partitions(model):
    assert_cold_build_matches_reference(model)


@settings(max_examples=10, deadline=None)
@given(model=tree_instances())
def test_cold_build_matches_reference_on_drawn_trees(model):
    assert_cold_build_matches_reference(model)


def assert_extensions_depend_only_on_the_last_block(model):
    runs: dict = {}
    for s in (EMPTY, *model.all_reducts()):
        blocks = set(model._extension_blocks(s))
        last = s.blocks[-1] if s.blocks else None
        assert runs.setdefault(last, blocks) == blocks, s


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_extensions_depend_only_on_the_last_block(name):
    assert_extensions_depend_only_on_the_last_block(LINE_INSTANCES[name]())


@settings(max_examples=40, deadline=None)
@given(model=fin_instances())
def test_extensions_depend_only_on_the_last_block_on_fin_partitions(model):
    assert_extensions_depend_only_on_the_last_block(model)


@settings(max_examples=10, deadline=None)
@given(model=tree_instances())
def test_extensions_depend_only_on_the_last_block_on_drawn_trees(model):
    assert_extensions_depend_only_on_the_last_block(model)


@pytest.mark.parametrize("build, calls", [
    (lambda: build_ellentuck(7), 8),
    (lambda: build_fin(5), 32),
    (lambda: build_fin(5, span_cap=2), 16),
    # every tree reduct ends in a block of its own
    (lambda: build_tree(2, 3), 75),
], ids=["e7", "fin5", "fin5cap2", "tree23"])
def test_a_cold_build_asks_the_hook_once_per_last_block(build, calls):
    model, asked = build(), []
    hook = model._extension_blocks
    model._extension_blocks = lambda s: asked.append(s) or hook(s)
    reducts = model.all_reducts()
    lasts = {s.blocks[-1] for s in reducts}
    assert len(asked) == calls == len(lasts) + 1


def assert_longest_first_is_witness_order(model, data):
    mask = data.draw(st.integers(min_value=0, max_value=model._every_reduct()))
    reducts = model.reducts_in(mask)
    assert longest_first(reducts) == sorted(reducts, key=witness_sort_key)


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_longest_first_is_witness_order(name, data):
    assert_longest_first_is_witness_order(LINE_INSTANCES[name](), data)


@settings(max_examples=25, deadline=None)
@given(model=fin_instances(), data=st.data())
def test_longest_first_is_witness_order_on_fin_partitions(model, data):
    assert_longest_first_is_witness_order(model, data)


@settings(max_examples=10, deadline=None)
@given(model=tree_instances(), data=st.data())
def test_longest_first_is_witness_order_on_drawn_trees(model, data):
    assert_longest_first_is_witness_order(model, data)


def test_a_prefix_no_reduct_has_is_empty():
    model = build_fin(4)
    stray = model.full.extend(model.full.blocks[0])  # longer than any reduct
    assert model.prefix_mask(stray) == 0
    reversed_pair = Approx(model.full.blocks[1::-1])
    assert model.prefix_mask(reversed_pair) == 0 == restrict_table_mask(model, reversed_pair)


class CountingRestrict:
    """Counts the calls of the restrict it wraps."""

    def __init__(self, restrict):
        self.restrict, self.calls = restrict, 0

    def __call__(self, x, n):
        self.calls += 1
        return self.restrict(x, n)


class OverriddenOnClass(EllentuckModel):
    restrict_calls = 0

    def restrict(self, x, n):
        OverriddenOnClass.restrict_calls += 1
        return super().restrict(x, n)


def test_a_restrict_override_keeps_the_table():
    on_instance = build_ellentuck(4)
    on_instance.restrict = CountingRestrict(on_instance.restrict)
    on_class = OverriddenOnClass(4)
    plain = build_ellentuck(4)
    for model in (on_instance, on_class):
        approxes = model.approximations()  # reads segments through restrict
        on_instance.restrict.calls = OverriddenOnClass.restrict_calls = 0
        for s in approxes:
            assert model.prefix_mask(s) == plain.prefix_mask(s), s
        # one table per length, each filled through restrict: the 15
        # reducts have 4, 6, 4 and 1 of lengths 1 to 4
        assert sorted(model._restrict_tables) == list(range(5))
        calls = on_instance.restrict.calls + OverriddenOnClass.restrict_calls
        assert calls == 15 + 15 + 11 + 5 + 1
    assert not plain._restrict_tables


def test_fin_builds_each_union_once():
    model = build_fin(4)
    first, second = model.full.blocks[0], model.full.blocks[1]
    # the union of the last two pieces, asked from two parents
    from_first = model.extension_blocks(EMPTY.extend(first), model.full)
    from_second = model.extension_blocks(EMPTY.extend(second), model.full)
    tail = [b for b in from_first if b.source == (3, 5)]
    same = [b for b in from_second if b.source == (3, 5)]
    assert len(tail) == len(same) == 1 and tail[0] is same[0]
    # and the reducts holding it share that object too
    holders = {id(b) for y in model.all_reducts() for b in y.blocks if b == tail[0]}
    assert holders == {id(tail[0])}
