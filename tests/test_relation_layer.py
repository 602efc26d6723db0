"""The relation layer's fast paths against the plain scans they replace.

The bitset masks behind sub_reducts/basic, the linear A.1 pass and the
mask-based A.3 search must give the same answers, and the same witness,
as the direct loops kept here as references. A counting subclass pins
the amount of relation work, so a quadratic pass that comes back fails
without any timing.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    EMPTY,
    Approx,
    Block,
    EllentuckModel,
    build_fin,
    build_tree,
    canonical_json,
    check_axioms,
    witness_sort_key,
)
from helpers import ea
from test_axioms import InflatedLeq, ShiftedRestrict


# ---------------------------------------------------------------------------
# Reference scans: the relation layer and the A.1/A.3 loops as they were
# before the masks, written against the model's public relations only.

def reference_sub_reducts(model, x):
    return tuple(y for y in model.all_reducts() if model.leq_fin(y, x))


def reference_basic(model, s, x):
    n = len(s)
    return tuple(
        y for y in reference_sub_reducts(model, x)
        if len(y) >= n and model.restrict(y, n) == s
    )


def _pad_segment(model, x, n):
    if n > len(x):
        return ("#undefined", n)
    return model.restrict(x, n).key


def reference_a1(model):
    reds = model.all_reducts()
    for x in reds:
        if model.restrict(x, 0) != EMPTY:
            return {"verdict": "fail", "witness": {"clause": 1, "x": x}}
    span = max(len(x) for x in reds) + 1
    for x, y in itertools.combinations(reds, 2):
        if all(_pad_segment(model, x, n) == _pad_segment(model, y, n) for n in range(span + 1)):
            return {"verdict": "fail", "witness": {"clause": 2, "x": x, "y": y}}
    for x in reds:
        for y in reds:
            for n in range(len(x) + 1):
                rx = model.restrict(x, n)
                for m in range(len(y) + 1):
                    if rx != model.restrict(y, m):
                        continue
                    if n != m or any(
                        model.restrict(x, k) != model.restrict(y, k) for k in range(n)
                    ):
                        return {
                            "verdict": "fail",
                            "witness": {"clause": 3, "x": x, "y": y, "n": n, "m": m},
                        }
    return {"verdict": "pass", "witness": None}


def reference_a3(model):
    approxes = model.approximations()
    reds = model.all_reducts()
    for s in approxes:
        for x in reds:
            for y in reference_basic(model, s, x):
                if not reference_basic(model, s, y):
                    return {"verdict": "fail", "witness": {"clause": 1, "s": s, "x": x, "y": y}}
    for y in reds:
        for x in reference_sub_reducts(model, y):
            for s in approxes:
                sx = reference_basic(model, s, x)
                if not sx:
                    continue
                sx_keys = {z.key for z in sx}
                if not any(
                    (sz := reference_basic(model, s, z)) and all(w.key in sx_keys for w in sz)
                    for z in sorted(reference_basic(model, s, y), key=witness_sort_key)
                ):
                    return {"verdict": "fail", "witness": {"clause": 2, "s": s, "x": x, "y": y}}
    return {"verdict": "pass", "witness": None}


# ---------------------------------------------------------------------------
# More injected defects, reaching the clauses the shipped ones miss.

class LongHeadRestrict(EllentuckModel):
    """The length-1 segment of every reduct is the whole reduct, so one
    segment turns up at two lengths while segment tuples stay distinct."""

    def restrict(self, x, n):
        return super().restrict(x, len(x) if n == 1 else n)


class DroppedAtom(EllentuckModel):
    """Forgets that the atom 1 lies in the full reduct, so the order is
    no longer transitive."""

    def leq_fin(self, s, t):
        if s == ea(1) and t == self.full:
            return False
        return super().leq_fin(s, t)


class IrreflexiveAtom(EllentuckModel):
    """Denies that the atom 0 lies below itself, so [EMPTY, {0}] is
    empty although {0} sits in nonempty basic sets."""

    def leq_fin(self, s, t):
        if s == t == ea(0):
            return False
        return super().leq_fin(s, t)


DEFECTS = {
    "ShiftedRestrict": ShiftedRestrict,
    "InflatedLeq": InflatedLeq,
    "LongHeadRestrict": LongHeadRestrict,
    "DroppedAtom": DroppedAtom,
    "IrreflexiveAtom": IrreflexiveAtom,
}


def _model(request, name):
    if name in DEFECTS:
        return DEFECTS[name](4)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["e5", "fin3", "tree22", *DEFECTS])
@pytest.mark.parametrize("axiom, reference", [("A1", reference_a1), ("A3", reference_a3)])
def test_fast_axioms_match_reference(request, name, axiom, reference):
    fast = check_axioms(_model(request, name), axiom)
    slow = reference(_model(request, name))
    assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"])


def test_new_defects_reach_their_clauses():
    a1 = check_axioms(LongHeadRestrict(4), "A1")
    assert (a1["verdict"], a1["witness"]["clause"]) == ("fail", 3)
    a3 = check_axioms(DroppedAtom(4), "A3")
    assert (a3["verdict"], a3["witness"]["clause"]) == ("fail", 2)
    a3 = check_axioms(IrreflexiveAtom(4), "A3")
    assert (a3["verdict"], a3["witness"]["clause"]) == ("fail", 1)


# ---------------------------------------------------------------------------
# basic(s, x) and sub_reducts(x) against the scans, on drawn instances.

def _assert_basic_matches_scan(model):
    for x in model.all_reducts():
        assert model.sub_reducts(x) == reference_sub_reducts(model, x)
        for s in model.approximations():
            assert model.basic(s, x) == reference_basic(model, s, x)


@st.composite
def fin_instances(draw):
    atoms = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(4, atoms)))
    order = draw(st.permutations(range(atoms)))
    cuts = sorted(draw(st.sets(st.integers(1, atoms - 1), min_size=k - 1, max_size=k - 1))) if k > 1 else []
    bounds = [0, *cuts, atoms]
    levels = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    cap = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=k)))
    return build_fin(levels=levels, span_cap=cap)


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_basic_matches_scan_on_fin_partitions(model):
    _assert_basic_matches_scan(model)


@pytest.mark.parametrize("b, h", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_basic_matches_scan_on_trees(b, h):
    _assert_basic_matches_scan(build_tree(b, h))


# ---------------------------------------------------------------------------
# extension_blocks(s, x) against the truncation: the last blocks of the
# one-block-longer reducts that start with s and lie below x. The
# reducts grow from the same hook inside the full reduct, so for x below
# it this scan is the hook's independent slow path.

def _assert_extensions_match_truncation(model):
    reds = model.all_reducts()
    for x in reds:
        for s in model.approximations():
            if not model.leq_fin(s, x):
                continue
            n = len(s)
            grown = {
                r.blocks[-1] for r in reds
                if len(r) == n + 1 and model.restrict(r, n) == s and model.leq_fin(r, x)
            }
            assert set(model.extension_blocks(s, x)) == grown, (s, x)


EXTENSION_INSTANCES = {
    "fin5": lambda: build_fin(5),
    "tree32": lambda: build_tree(3, 2),
}


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "fin5", "tree22", "tree23", "tree32"])
def test_extension_blocks_match_the_truncation(request, name):
    build = EXTENSION_INSTANCES.get(name)
    _assert_extensions_match_truncation(build() if build else request.getfixturevalue(name))


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_extension_blocks_match_the_truncation_on_fin_partitions(model):
    _assert_extensions_match_truncation(model)


# ---------------------------------------------------------------------------
# segments(x): every restriction of x, through the model's restrict, with
# equal segments interned to one object.

@pytest.mark.parametrize("name", ["e5", "fin3", "tree22", *DEFECTS])
def test_segments_are_the_restrictions(request, name):
    model = _model(request, name)
    interned = {}
    for x in model.all_reducts():
        segs = model.segments(x)
        assert segs == tuple(model.restrict(x, n) for n in range(len(x) + 1))
        assert model.segments(Approx(x.blocks)) is segs
        for seg in segs:
            assert interned.setdefault(seg, seg) is seg


# ---------------------------------------------------------------------------
# Cached hashes: a cache, never part of the value.

def test_independent_equal_values_hash_and_compare_equal():
    rng = random.Random(7)
    for _ in range(50):
        atoms = tuple(sorted(rng.sample(range(12), rng.randint(1, 4))))
        spec = [((a + 1, a + 2), (a,)) for a in atoms]
        a = Approx(tuple(Block(src, at) for src, at in spec))
        b = Approx(tuple(Block(src, at) for src, at in spec))
        assert a is not b
        hash(a)  # fill one cache and not the other
        assert a == b and hash(a) == hash(b)
        assert hash(b) == hash(a)  # and again with both filled
        assert {a: 1}[b] == 1
        for x, y in zip(a.blocks, b.blocks):
            assert x == y and hash(x) == hash(y)


def test_cached_hash_is_no_field():
    block = Block((1, 2), (0,))
    s = Approx((block,))
    # the cached value is the plain dataclass hash, so set orders stay put
    assert hash(s) == hash((s.blocks,)) and hash(block) == hash((block.source, block.atoms))
    assert [f.name for f in dataclasses.fields(Block)] == ["source", "atoms"]
    assert [f.name for f in dataclasses.fields(Approx)] == ["blocks"]
    assert "_hash" not in repr(s)
    assert "_hash" not in canonical_json({"s": s, "b": block})
    assert dataclasses.asdict(s) == {"blocks": ({"source": (1, 2), "atoms": (0,)},)}


# ---------------------------------------------------------------------------
# Work counts: relation calls made by the checks, no timing.

class CountingEllentuck(EllentuckModel):
    def __init__(self, n_atoms):
        self.restrict_calls = 0
        self.leq_fin_calls = 0
        super().__init__(n_atoms)

    def restrict(self, x, n):
        self.restrict_calls += 1
        return super().restrict(x, n)

    def _leq_fin(self, s, t):
        self.leq_fin_calls += 1
        return super()._leq_fin(s, t)


def test_a1_makes_linearly_many_restrict_calls():
    model = CountingEllentuck(6)
    reds = model.all_reducts()
    bound = len(reds) * (max(len(x) for x in reds) + 1)
    assert check_axioms(model, "A1")["verdict"] == "pass"
    assert model.restrict_calls <= bound


# _leq_fin evaluations on a fresh Ellentuck N=5, before the masks.
LEQ_FIN_BEFORE = {"A1": 0, "A2": 1024, "A3": 961}


@pytest.mark.parametrize("axiom", sorted(LEQ_FIN_BEFORE))
def test_leq_fin_evaluations_do_not_grow(axiom):
    model = CountingEllentuck(5)
    assert check_axioms(model, axiom)["verdict"] == "pass"
    assert model.leq_fin_calls <= LEQ_FIN_BEFORE[axiom]
