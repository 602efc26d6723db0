"""A cold instance is built in documented order: the walk that
enumerates the reducts emits them sorted and asks the extension hook
once per run key of a last block, prefix_mask reads runs of ids
instead of calling restrict, longest_first reads the witness order off
the id order, and FIN builds each union of pieces once. The walk and
the block hooks read the intern table and construct only what no one
holds, and a budget stops a tree or FIN inside one block run. Each fast
path is compared here with the slow form it replaced."""

from __future__ import annotations

import contextlib
import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trspace import EMPTY, Approx, BudgetExceededError, build_ellentuck, build_fin, build_tree
from trspace.model import _APPROXES, Block, approx_sort_key, longest_first, witness_sort_key
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
    """Parents whose last blocks have one run key have one run."""
    runs: dict = {}
    for s in (EMPTY, *model.all_reducts()):
        blocks = set(model._extension_blocks(s))
        key = model._run_key(s.blocks[-1] if s.blocks else None)
        assert runs.setdefault(key, blocks) == blocks, s


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
    # a FIN run is keyed by where the last block ends: ground levels 2-6
    (lambda: build_fin(5), 6),
    (lambda: build_fin(5, span_cap=2), 6),
    # every tree reduct ends in a block of its own, and the 59 that end
    # on the deepest level share one key
    (lambda: build_tree(2, 3), 17),
], ids=["e7", "fin5", "fin5cap2", "tree23"])
def test_a_cold_build_asks_the_hook_once_per_last_block(build, calls):
    model, asked = build(), []
    hook = model._extension_blocks
    model._extension_blocks = lambda s: asked.append(s) or hook(s)
    reducts = model.all_reducts()
    keys = {model._run_key(s.blocks[-1]) for s in reducts}
    assert len(asked) == calls == len(keys) + 1


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


@contextlib.contextmanager
def counted_constructors():
    """Counts the calls of Approx.__new__ and Block.__new__ while open."""
    calls = {Approx: 0, Block: 0}
    saved = {cls: cls.__dict__["__new__"] for cls in calls}

    def counting(cls, *args, **kwargs):
        calls[cls] += 1
        return saved[cls].__func__(cls, *args, **kwargs)

    for cls in calls:
        cls.__new__ = counting
    try:
        yield calls
    finally:
        for cls, new in saved.items():
            cls.__new__ = new


def held(blocks) -> bool:
    """Whether some live object holds the approximation of these blocks."""
    ref = _APPROXES.get(blocks)
    return ref is not None and ref() is not None


def assert_reducts_are_the_interned_closure(model, reducts):
    assert reducts == dfs_closure(model)
    assert all(Approx(y.blocks) is y for y in reducts)


def assert_both_intern_paths(build) -> int:
    """Builds with every lookup a hit, then with misses; returns the
    number of misses."""
    # Hits: another model of the instance holds every reduct, so the
    # walk and the block hooks construct nothing.
    holder = build()
    holder.approximations()
    model = build()
    with counted_constructors() as calls:
        reducts = model.all_reducts()
    assert calls == {Approx: 0, Block: 0}
    assert_reducts_are_the_interned_closure(model, reducts)
    assert all(y is h for y, h in zip(reducts, holder.all_reducts()))
    # Misses: with both models gone, the walk constructs each reduct that
    # no one holds. The new model holds its full reduct, and a live model
    # of another instance (a session fixture, say) may hold some more;
    # those are hits again.
    keys = [y.blocks for y in reducts]
    del holder, model, reducts
    gc.collect()
    model = build()
    unheld = sum(not held(k) for k in keys)
    with counted_constructors() as calls:
        reducts = model.all_reducts()
    assert calls[Approx] == unheld
    assert [y.blocks for y in reducts] == keys
    assert_reducts_are_the_interned_closure(model, reducts)
    return unheld


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_both_intern_paths(name):
    assert_both_intern_paths(LINE_INSTANCES[name])


def test_a_cold_build_no_one_shares_misses_on_every_reduct():
    # Levels no other instance has, so no other model holds a reduct:
    # the miss build constructs all 12 but the full one, which the model
    # holds from the start.
    assert assert_both_intern_paths(lambda: build_fin(levels=[[9, 7], [8], [6, 5]], span_cap=2)) == 11


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_both_intern_paths_on_fin_partitions(model):
    assert_both_intern_paths(lambda: build_fin(levels=model.levels, span_cap=model.span_cap))


@settings(max_examples=8, deadline=None)
@given(model=tree_instances())
def test_both_intern_paths_on_drawn_trees(model):
    assert_both_intern_paths(lambda: build_tree(model.b, model.h))


def assert_the_budget_stops_inside_a_run(model, budget, bound):
    """all_reducts(budget) is refused below bound bytes traced, and the
    hook, wrapped, yields at most budget + 1 blocks in all."""
    hook, drawn = model._extension_blocks, 0

    def counted(s):
        nonlocal drawn
        for block in hook(s):
            drawn += 1
            yield block

    model._extension_blocks = counted
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"max_reducts budget of {budget}$"):
            model.all_reducts(budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn <= budget + 1
    assert peak < bound


# After the run of EMPTY (every node: 364 and 121), the root's run is
# 81^3 = 531,441 blocks of level 5, some hundreds of megabytes built
# whole, and 27^3 = 19,683 of level 4, about 8 MB; lazily, the budget
# stops each after a few hundred. FIN on 22 ground levels has a run of
# 2^22 - 1 blocks from EMPTY, which the budget stops after 1,001 (about
# 0.8 MB traced).
BUDGET_STOPS = {
    "tree35": (lambda: build_tree(3, 5), 1000, 4_000_000),
    "tree34": (lambda: build_tree(3, 4), 200, 1_000_000),
    "fin22": (lambda: build_fin(22), 1000, 2_000_000),
}


@pytest.mark.parametrize("name", sorted(BUDGET_STOPS))
def test_a_budget_stops_inside_a_block_run(name):
    build, budget, bound = BUDGET_STOPS[name]
    assert_the_budget_stops_inside_a_run(build(), budget, bound)
