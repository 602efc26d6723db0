"""Concrete spaces against independent brute-force enumerations."""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import pytest
from hypothesis import given, settings

from trspace import (
    EMPTY,
    Block,
    BudgetExceededError,
    DomainError,
    EllentuckModel,
    FinModel,
    ParameterError,
    TreeModel,
    build_ellentuck,
    build_fin,
    build_tree,
    closure,
    instance_from_json,
    instance_to_json,
    uniform_front,
)
from helpers import fa, fblk, atoms_of, fin_instances


# ---------------------------------------------------------------------------
# Independent enumerations.

def brute_fin_reducts(n: int, cap=None):
    """All block sequences over ground indices 0..n-1, each block a
    nonempty index set whose minimum exceeds the previous maximum."""
    out = []

    def grow(prefix, floor):
        if prefix:
            out.append(tuple(prefix))
        for size in range(1, (cap or n) + 1):
            for combo in itertools.combinations(range(floor, n), size):
                if combo[0] < floor:
                    continue
                grow(prefix + [combo], combo[-1] + 1)

    grow([], 0)
    return {tuple(p) for p in out}


def brute_tree_towers(b: int, h: int):
    """All finite strong towers in the complete b-ary tree of height h:
    per level one node from each child slot of each current node, all
    drawn at one common ambient depth."""
    total = (b ** (h + 1) - 1) // (b - 1)
    starts = [(b ** d - 1) // (b - 1) for d in range(h + 2)]

    def depth_of(u):
        d = 0
        while not (starts[d] <= u < starts[d + 1]):
            d += 1
        return d

    def descendants_at(u, d):
        nodes = [u]
        for _ in range(d - depth_of(u)):
            nodes = [b * v + i for v in nodes for i in range(1, b + 1)]
        return [v for v in nodes if v < total]

    towers = []

    def grow(levels):
        towers.append(tuple(levels))
        last = levels[-1]
        for d in range(depth_of(last[0]) + 1, h + 1):
            slots = []
            for u in last:
                for c in range(1, b + 1):
                    v = b * u + c
                    opts = descendants_at(v, d) if v < total else []
                    slots.append(opts)
            if not all(slots):
                continue
            for combo in itertools.product(*slots):
                grow(levels + [tuple(sorted(combo))])

    for root in range(total):
        grow([(root,)])
    return set(towers)


def test_ellentuck_reduct_count_matches_subset_formula():
    for n in (3, 5, 6):
        model = build_ellentuck(n)
        assert len(model.all_reducts()) == 2 ** n - 1
        assert len(model.approximations()) == 2 ** n


def test_closed_form_reduct_count_matches_enumeration():
    # Ellentuck is admitted or refused by its closed form alone; it admits
    # a budget of exactly the enumerated count and refuses one less
    for n in range(1, 10):
        count = sum(1 for _ in build_ellentuck(n)._enumerate_reducts())
        assert EllentuckModel._fits({"N": n}, count)
        assert not EllentuckModel._fits({"N": n}, count - 1)
        assert len(build_ellentuck(n).all_reducts(count)) == count
        with pytest.raises(BudgetExceededError, match=f"max_reducts budget of {count - 1}$"):
            build_ellentuck(n).all_reducts(count - 1)
    # the other spaces give no closed form, so they are admitted and held
    # to the budget while they enumerate
    assert FinModel._fits(build_fin(3).params, 1)
    assert TreeModel._fits(build_tree(2, 2).params, 1)


def test_fin_reducts_match_independent_enumeration():
    for n, cap in ((3, None), (4, None), (4, 2)):
        model = build_fin(n, span_cap=cap)
        got = {atoms_of(x) for x in model.all_reducts()}
        want = brute_fin_reducts(n, cap)
        assert got == want, (n, cap, len(got), len(want))


def test_fin_reduct_counts_frozen():
    assert len(build_fin(3).all_reducts()) == 13
    assert len(build_fin(4).all_reducts()) == 40
    assert len(build_fin(5).all_reducts()) == 121
    assert len(build_fin(4, span_cap=2).all_reducts()) == 33


def test_tree_towers_match_independent_enumeration():
    for b, h in ((2, 2), (2, 3)):
        model = build_tree(b, h)
        got = {atoms_of(x) for x in model.all_reducts()}
        want = brute_tree_towers(b, h)
        assert got == want, (b, h, len(got), len(want))


def test_tree_reduct_counts_frozen(tree22, tree23):
    assert len(tree22.all_reducts()) == 15
    assert len(tree23.all_reducts()) == 74
    assert len(tree23.extension_blocks(EMPTY, tree23.full)) == 15


# ---------------------------------------------------------------------------
# Parameter guards.

def test_instance_parameter_guards():
    with pytest.raises(ParameterError):
        build_ellentuck(0)
    with pytest.raises(ParameterError):
        build_fin(0)
    with pytest.raises(ParameterError, match="span cap must be at least 1"):
        build_fin(3, span_cap=0)
    with pytest.raises(ParameterError):
        build_tree(1, 3)
    with pytest.raises(ParameterError):
        build_tree(2, 0)
    with pytest.raises(ParameterError):
        build_tree(2, 11)  # over the node guard


def test_tree_node_cap_stops_before_the_last_level():
    assert build_tree(2, 9).levels[-1][-1] == 1022  # 1,023 nodes
    with pytest.raises(ParameterError, match="budget of 2000 nodes"):
        build_tree(2, 10)  # 2,047 nodes
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="budget of 2000 nodes"):
        instance_from_json({"instance": "tree", "params": {"b": 2, "h": 10**6}})
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Closure.

def test_closure_examples(fin3, fin4):
    assert sorted(b.atoms for b in closure(fin3, fa((0,), (1,)))) == [(0,), (0, 1), (1,)]
    assert [b.atoms for b in closure(fin3, fa((0,)))] == [(0,)]
    assert len(closure(fin4, fin4.full)) == 15


def test_rank_one_front_blocks_sit_inside_the_catalog(fin4):
    catalog = set(closure(fin4, fin4.full))
    for member in uniform_front(fin4, 1).members:
        assert member.blocks[0] in catalog


def test_fin_wide_source_blocks_exist(fin3):
    wide = [b for b in closure(fin3, fin3.full) if b.source[1] - b.source[0] > 1]
    assert wide


def test_ellentuck_extensions_single_level(e6):
    for s in uniform_front(e6, 1).members:
        for block in e6.extension_blocks(s, e6.full):
            assert block.source[1] - block.source[0] == 1


# ---------------------------------------------------------------------------
# Selector vocabulary per space.

def test_selector_names(e5, fin4, tree22):
    assert set(e5.selector_names()) == {"drop", "keep"}
    assert set(fin4.selector_names()) == {"drop", "min", "max", "minmax", "identity"}
    assert set(tree22.selector_names()) == {"drop", "full"}


def test_selector_catalogs_in_family_order(e5, fin4, tree22):
    # canonize tries the catalog in this order, so the order is pinned.
    assert e5.selector_names() == ("drop", "keep")
    assert fin4.selector_names() == ("drop", "min", "max", "minmax", "identity")
    assert tree22.selector_names() == ("drop", "full")
    assert [m.family_limited for m in (e5, fin4, tree22)] == [False, False, True]
    with pytest.raises(DomainError, match="unknown selector 'keep' for fin"):
        fin4.apply_selector("keep", fblk(1))


def test_selector_outputs(fin4):
    b = fblk(1, 2, 3)
    assert fin4.apply_selector("drop", b) == ()
    assert fin4.apply_selector("min", b) == (1,)
    assert fin4.apply_selector("max", b) == (3,)
    assert fin4.apply_selector("minmax", b) == (1, 3)
    assert fin4.apply_selector("identity", b) == (1, 2, 3)


# ---------------------------------------------------------------------------
# FIN's ground levels, read off its atom map.

@settings(max_examples=60, deadline=None)
@given(fin_instances())
def test_fin_blocks_are_the_union_of_their_ground_levels(model):
    levels = [frozenset(l) for l in model.levels]
    for y in model.all_reducts():
        for b in y.blocks:
            got = model.ground_indices(b)
            assert got and frozenset().union(*(levels[i] for i in got)) == frozenset(b.atoms)
            assert model.ground_indices(b) is got  # kept per block


def _proper_combination_reference(block, w, s) -> bool:
    # Over singleton ground levels an atom is its level: block properly
    # contains w and lies wholly past every atom of s.
    inner, outer = frozenset(w.atoms), frozenset(block.atoms)
    before = frozenset(a for sb in s.blocks for a in sb.atoms)
    return inner < outer and all(a > b for a in outer for b in before)


def test_fin_proper_combination_matches_a_set_reference(fin4, fin4cap2):
    for model in (fin4, fin4cap2):
        blocks = closure(model, model.full)
        for s in model.approximations():
            for block in blocks:
                for w in blocks:
                    want = _proper_combination_reference(block, w, s)
                    assert model.proper_combination(block, w, s) == want, (s, block, w)


def test_tree_proper_combination_stays_on_one_level(tree22):
    _, level1, level2 = tree22.full.blocks
    w = Block(source=level1.source, atoms=level1.atoms[:1])
    assert tree22.proper_combination(level1, w, EMPTY)
    assert not tree22.proper_combination(level1, level1, EMPTY)
    # across two levels
    assert not tree22.proper_combination(level2, w, EMPTY)


# ---------------------------------------------------------------------------
# Instance JSON round trip.

def test_instance_roundtrip(e5, fin4cap2, tree23):
    for model in (e5, fin4cap2, tree23):
        clone = instance_from_json(instance_to_json(model))
        assert clone.instance_tag() == model.instance_tag()
        assert len(clone.all_reducts()) == len(model.all_reducts())


def test_instance_tag_is_the_digest_of_the_instance_json(e5, fin4cap2, tree23):
    for model in (e5, fin4cap2, tree23):
        blob = json.dumps(instance_to_json(model), sort_keys=True).encode()
        tag = model.instance_tag()
        assert tag == f"{model.kind}:{hashlib.sha256(blob).hexdigest()[:12]}"
        assert model.instance_tag() is tag  # computed once
