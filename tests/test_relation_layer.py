"""The relation layer's fast paths against the plain scans they replace.

The rows and columns every space builds from its per-piece reduct
masks must hold exactly the pairs of its pairwise _leq_fin. The bitset
masks behind sub_reducts/basic/up_mask/below/depth, the linear A.1
pass, the row-based A.2 and mask-based A.3 searches and the mixing
engine's mask verdicts must give the same answers, and the same
witness, as the direct loops kept here as references. Counting wrappers
pin the amount of relation work, so a quadratic pass or a per-reduct
loop that comes back fails without any timing.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from trspace import (
    EMPTY,
    GENERATORS,
    MIXES,
    SEPARATES,
    UNDECIDED,
    Approx,
    Block,
    Config,
    DomainError,
    EllentuckModel,
    ParameterError,
    MixingEngine,
    build_ellentuck,
    build_fin,
    build_tree,
    canonical_json,
    check_axioms,
    color_front,
    generated_coloring,
    canonize,
    hat,
    mixing_table,
    pigeonhole_A4,
    approx_sort_key,
    uniform_front,
    witness_sort_key,
)
from trspace.model import _APPROXES, _BLOCKS, _is_preorder
from trspace.reportio import to_jsonable
from helpers import ea, ellentuck_instances, fa, fin_instances, flip_bits, refuse_pairwise_hook, tree_instances
from test_axioms import InflatedLeq, ShiftedRestrict


# ---------------------------------------------------------------------------
# Reference scans: the relation layer and the A.1-A.3 loops as they were
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


def reference_a2(model):
    approxes = model.approximations()
    reds = model.all_reducts()
    leq = model.leq_fin
    app_segs = [model.segments(t) for t in approxes]
    red_segs = [model.segments(x) for x in reds]
    largest = 0
    for t in approxes:
        count = sum(1 for s in approxes if leq(s, t))
        largest = max(largest, count)
    for x, sx in zip(reds, red_segs):
        for y, sy in zip(reds, red_segs):
            direct = leq(x, y)
            quantified = all(any(leq(a, b) for b in sy) for a in sx)
            if direct != quantified:
                return {
                    "verdict": "fail",
                    "witness": {"clause": 2, "x": x, "y": y,
                                "direct": direct, "quantified": quantified},
                    "stats": {"max_predecessors": largest},
                }
    undecided = []
    for t, st in zip(approxes, app_segs):
        above = [(tp, stp) for tp, stp in zip(approxes, app_segs) if leq(t, tp)]
        for s in st:
            for tp, stp in above:
                if any(leq(s, b) for b in stp):
                    continue
                if model.extension_blocks(tp, model.full):
                    undecided.append({"clause": 3, "s": s, "t": t, "tprime": tp})
                else:
                    return {
                        "verdict": "fail",
                        "witness": {"clause": 3, "s": s, "t": t, "tprime": tp},
                        "stats": {"max_predecessors": largest},
                    }
    if undecided:
        return {
            "verdict": "undecided", "witness": undecided[0],
            "stats": {"max_predecessors": largest, "boundary_misses": len(undecided)},
        }
    return {
        "verdict": "pass", "witness": None,
        "stats": {"max_predecessors": largest, "approximations": len(approxes)},
    }


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
# A.3 searches only an order that is no preorder. Dropping {0} <= {0,1,2}
# on Ellentuck N=3 breaks transitivity and still passes the search, so the
# search's pass report is an example of the drawn test below.

TRANSITIVE_GAP = frozenset({(ea(0), ea(0, 1, 2))})


def _columns(model):
    return [model.sub_mask(x) for x in model.all_reducts()]


@pytest.mark.parametrize("name", ["e5", "fin3", "fin4cap2", "tree22"])
def test_shipped_orders_are_preorders(request, name):
    assert _is_preorder(_columns(request.getfixturevalue(name)))


def test_a3_searches_every_relation_that_is_no_preorder():
    # their witnesses come from the search, as before the order check
    assert not _is_preorder(_columns(DroppedAtom(4)))
    assert not _is_preorder(_columns(IrreflexiveAtom(4)))
    transitive_gap = _defective(SMALL_SPACES["e3"], TRANSITIVE_GAP, None)
    assert not _is_preorder(_columns(transitive_gap))
    report = check_axioms(transitive_gap, "A3")
    assert (report["verdict"], report["stats"]) == ("pass", {"reducts": 7})
    assert transitive_gap._prefix_masks  # the search ran


# ---------------------------------------------------------------------------
# More injected defects, reaching the clauses the shipped ones miss.

class LongHeadRestrict(EllentuckModel):
    """The length-1 segment of every reduct is the whole reduct, so one
    segment turns up at two lengths while segment tuples stay distinct."""

    def restrict(self, x, n):
        return super().restrict(x, len(x) if n == 1 else n)


class FlippedLeq(EllentuckModel):
    """Ellentuck with the relation negated on the pairs in flips, as
    flipped bits of its rows and columns."""

    flips: frozenset = frozenset()

    def _line(self, a, up):
        return flip_bits(self, self.flips, a, up, super()._line(a, up))


class DroppedAtom(FlippedLeq):
    """Forgets that the atom 1 lies in the full reduct, so the order is
    no longer transitive."""

    @property
    def flips(self):
        return frozenset({(ea(1), self.full)})


class IrreflexiveAtom(FlippedLeq):
    """Denies that the atom 0 lies below itself, so [EMPTY, {0}] is
    empty although {0} sits in nonempty basic sets."""

    flips = frozenset({(ea(0), ea(0))})


class NonEmptyZero(EllentuckModel):
    """The empty segment of every nonempty reduct is its first block, so
    A.1 clause 1 fails."""

    def restrict(self, x, n):
        return super().restrict(x, max(n, 1) if x.blocks else n)


DEFECTS = {
    "ShiftedRestrict": ShiftedRestrict,
    "InflatedLeq": InflatedLeq,
    "LongHeadRestrict": LongHeadRestrict,
    "DroppedAtom": DroppedAtom,
    "IrreflexiveAtom": IrreflexiveAtom,
    "NonEmptyZero": NonEmptyZero,
}


def _model(request, name):
    if name in DEFECTS:
        return DEFECTS[name](4)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["e5", "fin3", "tree22", *DEFECTS])
@pytest.mark.parametrize(
    "axiom, reference", [("A1", reference_a1), ("A2", reference_a2), ("A3", reference_a3)]
)
def test_fast_axioms_match_reference(request, name, axiom, reference):
    fast = check_axioms(_model(request, name), axiom)
    slow = reference(_model(request, name))
    assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"])
    if "stats" in slow:
        assert fast["stats"] == slow["stats"]


def test_new_defects_reach_their_clauses():
    a1 = check_axioms(NonEmptyZero(4), "A1")
    assert (a1["verdict"], a1["witness"]["clause"]) == ("fail", 1)
    a1 = check_axioms(LongHeadRestrict(4), "A1")
    assert (a1["verdict"], a1["witness"]["clause"]) == ("fail", 3)
    a3 = check_axioms(DroppedAtom(4), "A3")
    assert (a3["verdict"], a3["witness"]["clause"]) == ("fail", 2)
    a3 = check_axioms(IrreflexiveAtom(4), "A3")
    assert (a3["verdict"], a3["witness"]["clause"]) == ("fail", 1)


# ---------------------------------------------------------------------------
# A.2 clause 3: no defect above reaches it. Flipping the relation on
# three pairs of Ellentuck N=3 does; no such flip set turned up at N=4.

class SwappedEmptyFull(FlippedLeq):
    """The full reduct lies below EMPTY, EMPTY not below the full reduct
    and {0,1} not below itself. The segment {0} of the full reduct lies
    below no segment of EMPTY, and EMPTY, cut off from the full reduct,
    has no extension left: clause 3 fails."""

    flips = frozenset({(EMPTY, ea(0, 1, 2)), (ea(0, 1, 2), EMPTY), (ea(0, 1), ea(0, 1))})


class LoweredPair(FlippedLeq):
    """{0,2} lies below EMPTY, {0} and {0,1}. Its segment {0} lies below
    no segment of EMPTY, which can still grow: one boundary miss."""

    flips = frozenset({(ea(0, 2), ea(0)), (ea(0, 2), EMPTY), (ea(0, 2), ea(0, 1))})


CLAUSE3_DEFECTS = {"SwappedEmptyFull": SwappedEmptyFull, "LoweredPair": LoweredPair}


@pytest.mark.parametrize(
    "name, verdict, misses",
    [("SwappedEmptyFull", "fail", None), ("LoweredPair", "undecided", 1)],
)
def test_clause3_defects_reach_clause_3(name, verdict, misses):
    # Their agreement with reference_a2 is an example of the drawn test below.
    report = check_axioms(CLAUSE3_DEFECTS[name](3), "A2")
    assert (report["verdict"], report["witness"]["clause"]) == (verdict, 3)
    assert report["stats"].get("boundary_misses") == misses


# Segment maps for the drawn defects, given the model's restrict: its
# own, the long head of LongHeadRestrict, the shift of ShiftedRestrict
# and the last n blocks, which on trees are segments that are no reducts.
SEGMENT_MAPS = {
    "as-is": None,
    "long-head": lambda restrict, x, n: restrict(x, len(x) if n == 1 else n),
    "shifted": lambda restrict, x, n: restrict(x, max(0, n - 1)),
    "suffix": lambda restrict, x, n: Approx(x.blocks[len(x) - n:]),
}
SMALL_SPACES = {
    "e3": lambda: build_ellentuck(3),
    "fin3": lambda: build_fin(3),
    "tree21": lambda: build_tree(2, 1),
}


def _defective(build, flips, segment):
    model = build()
    line, restrict = model._line, model.restrict
    model._line = lambda a, up: flip_bits(model, flips, a, up, line(a, up))
    if segment is not None:
        model.restrict = lambda x, n: segment(restrict, x, n)
    return model


@st.composite
def flipped_defects(draw):
    space = draw(st.sampled_from(sorted(SMALL_SPACES)))
    approxes = (EMPTY, *SMALL_SPACES[space]().all_reducts())
    pairs = st.tuples(st.sampled_from(approxes), st.sampled_from(approxes))
    flips = frozenset(draw(st.lists(pairs, max_size=6)))
    segment = draw(st.sampled_from(sorted(SEGMENT_MAPS)))
    return space, flips, segment


@settings(max_examples=60, deadline=None)
@given(defect=flipped_defects())
@example(defect=("e3", SwappedEmptyFull.flips, "as-is"))
@example(defect=("e3", LoweredPair.flips, "as-is"))
@example(defect=("e3", TRANSITIVE_GAP, "as-is"))
def test_fast_axioms_match_reference_on_flipped_pairs(defect):
    space, flips, segment = defect
    for axiom, reference in (("A1", reference_a1), ("A2", reference_a2), ("A3", reference_a3)):
        fast = check_axioms(_defective(SMALL_SPACES[space], flips, SEGMENT_MAPS[segment]), axiom)
        slow = reference(_defective(SMALL_SPACES[space], flips, SEGMENT_MAPS[segment]))
        assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"]), axiom
        if "stats" in slow:
            assert fast["stats"] == slow["stats"], axiom


# ---------------------------------------------------------------------------
# One relation: leq_fin, up_mask, sub_mask, below and the rows A.2 reads
# see every injected defect the same way, EMPTY's pairs included.

def _assert_one_relation(model):
    tops = (EMPTY, *model.all_reducts())
    for i, s in enumerate(tops):
        row = model._row(s)
        for j, t in enumerate(tops):
            leq = model.leq_fin(s, t)
            assert ((row >> j) & 1, (model._column(t) >> i) & 1) == (leq, leq), (s, t)
            assert model.below((s,), t) == ((s,) if leq else ()), (s, t)
            if i and j:
                assert ((model.up_mask(s) >> j - 1) & 1, (model.sub_mask(t) >> i - 1) & 1) == (leq, leq)
    _assert_up_mask_is_the_transpose(model)


@pytest.mark.parametrize("name", [*DEFECTS, *CLAUSE3_DEFECTS])
def test_defects_read_as_one_relation(name):
    cls = DEFECTS.get(name) or CLAUSE3_DEFECTS[name]
    _assert_one_relation(cls(4 if name in DEFECTS else 3))


@settings(max_examples=30, deadline=None)
@given(defect=flipped_defects())
def test_flipped_pairs_read_as_one_relation(defect):
    space, flips, segment = defect
    model = _defective(SMALL_SPACES[space], flips, SEGMENT_MAPS[segment])
    _assert_one_relation(model)
    for s, t in itertools.product((EMPTY, *model.all_reducts()), repeat=2):
        assert model.leq_fin(s, t) == (((s, t) in flips) != model._leq_fin(s, t)), (s, t)


# ---------------------------------------------------------------------------
# basic(s, x) and sub_reducts(x) against the scans, on drawn instances.

def _assert_basic_matches_scan(model):
    for x in model.all_reducts():
        assert model.sub_reducts(x) == reference_sub_reducts(model, x)
        for s in model.approximations():
            assert model.basic(s, x) == reference_basic(model, s, x)


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_basic_matches_scan_on_fin_partitions(model):
    _assert_basic_matches_scan(model)


@pytest.mark.parametrize("b, h", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_basic_matches_scan_on_trees(b, h):
    _assert_basic_matches_scan(build_tree(b, h))


@settings(max_examples=8, deadline=None)
@given(model=tree_instances())
def test_basic_matches_scan_on_drawn_trees(model):
    _assert_basic_matches_scan(model)


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "tree22", "tree23"])
def test_super_reducts_match_scan(request, name):
    model = request.getfixturevalue(name)
    reducts = model.all_reducts()
    for x in reducts:
        assert model.between(x, model.full) == tuple(y for y in reducts if model.leq_fin(x, y))


# ---------------------------------------------------------------------------
# The rows and columns against the pairwise _leq_fin, the hook's
# independent slow path, on every pair of (EMPTY, *reducts).

def _assert_lines_match_hook(model):
    tops = (EMPTY, *model.all_reducts())
    for i, s in enumerate(tops):
        row, column = model._row(s), model._column(s)
        for j, t in enumerate(tops):
            assert (row >> j) & 1 == model._leq_fin(s, t), (s, t)
            assert (column >> j) & 1 == model._leq_fin(t, s), (t, s)


LINE_INSTANCES = {
    **{f"e{n}": (lambda n=n: build_ellentuck(n)) for n in range(1, 8)},
    **{
        f"fin{n}cap{cap}": (lambda n=n, cap=cap: build_fin(n, span_cap=cap))
        for n in range(1, 6) for cap in (None, 1, 2)
    },
    **{f"tree{b}{h}": (lambda b=b, h=h: build_tree(b, h)) for b, h in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]},
}


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_rows_and_columns_are_the_pairwise_hook(name):
    _assert_lines_match_hook(LINE_INSTANCES[name]())


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_rows_and_columns_are_the_pairwise_hook_on_fin_partitions(model):
    _assert_lines_match_hook(model)


@settings(max_examples=8, deadline=None)
@given(model=tree_instances())
def test_rows_and_columns_are_the_pairwise_hook_on_drawn_trees(model):
    _assert_lines_match_hook(model)


def test_engine_never_asks_the_pairwise_hook(monkeypatch):
    refuse_pairwise_hook(monkeypatch)
    for model in (build_ellentuck(5), build_fin(4), build_fin(4, span_cap=2), build_tree(2, 2)):
        for axiom in ("A1", "A2", "A3"):
            assert check_axioms(model, axiom)["verdict"] == "pass"
        for s in (EMPTY, *model.all_reducts()[:3]):
            exts = model.extensions(s, model.full)
            if exts:
                pigeonhole_A4(model, s, model.full, lambda p: len(p.blocks[-1].atoms) % 2)
        front = uniform_front(model, 1)
        coloring = color_front(front, GENERATORS["min"], name="min")
        assert canonize(model, coloring, oracle=True).verdict == "pass"


# ---------------------------------------------------------------------------
# depth(x, s) and below(approxes, x), read off the up rows, against plain
# leq_fin scans on every (x, s), with x also EMPTY.

def _assert_rows_match_scan(model):
    approxes = model.approximations()
    for x in (EMPTY, *model.all_reducts()):
        assert model.below(approxes, x) == tuple(s for s in approxes if model.leq_fin(s, x))
        for s in approxes:
            scan = next(
                (k for k in range(len(x) + 1) if model.leq_fin(s, model.restrict(x, k))),
                math.inf,
            )
            assert model.depth(x, s) == scan, (x, s)


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "tree22"])
def test_depth_and_below_match_scan(request, name):
    _assert_rows_match_scan(request.getfixturevalue(name))


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_depth_and_below_match_scan_on_fin_partitions(model):
    _assert_rows_match_scan(model)


# ---------------------------------------------------------------------------
# extensions(s, x) against the truncation: the one-block-longer reducts
# that start with s and lie below x, in documented order, each the
# stored reduct itself; extension_blocks(s, x) is their last blocks. The
# scan reads restrict and leq_fin, not the child runs extensions reads.

def _assert_extensions_match_truncation(model):
    reds = model.all_reducts()
    ordered = sorted(reds, key=approx_sort_key)
    for x in reds:
        for s in model.approximations():
            if not model.leq_fin(s, x):
                assert model.extensions(s, x) == (), (s, x)
                continue
            n = len(s)
            grown = tuple(
                r for r in ordered
                if len(r) == n + 1 and model.restrict(r, n) == s and model.leq_fin(r, x)
            )
            exts = model.extensions(s, x)
            assert exts == grown, (s, x)
            assert all(e is r for e, r in zip(exts, grown))
            assert model.extension_blocks(s, x) == tuple(r.blocks[-1] for r in grown)


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
# Interning: one object per value, hashed by identity, never a field.

def test_independent_equal_values_hash_and_compare_equal():
    rng = random.Random(7)
    for _ in range(50):
        atoms = tuple(sorted(rng.sample(range(12), rng.randint(1, 4))))
        spec = [((a + 1, a + 2), (a,)) for a in atoms]
        a = Approx(tuple(Block(src, at) for src, at in spec))
        b = Approx(tuple(Block(src, at) for src, at in spec))
        assert a is b
        hash(a)
        assert a == b and hash(a) == hash(b)
        assert hash(b) == hash(a)
        assert {a: 1}[b] == 1
        for x, y in zip(a.blocks, b.blocks):
            assert x == y and hash(x) == hash(y)


def test_cached_hash_is_no_field():
    block = Block((1, 2), (0,))
    s = Approx((block,))
    assert [f.name for f in dataclasses.fields(Block)] == ["source", "atoms"]
    assert [f.name for f in dataclasses.fields(Approx)] == ["blocks"]
    assert "_hash" not in repr(s)
    assert "_hash" not in canonical_json({"s": s, "b": block})
    assert dataclasses.asdict(s) == {"blocks": ({"source": (1, 2), "atoms": (0,)},)}


def test_first_hash_is_the_dataclass_hash_and_no_field():
    block = Block((2, 4), (1, 3))
    s = Approx((block, Block((4, 5), (4,))))
    twin = Approx((Block((2, 4), (1, 3)), Block((4, 5), (4,))))
    assert s == twin and block == twin.blocks[0]
    assert not block < twin.blocks[0] and not twin.blocks[0] < block
    assert [f.name for f in dataclasses.fields(s)] == ["blocks"]
    assert repr(s) == repr(twin) and "_hash" not in repr(block)
    assert to_jsonable(s) == to_jsonable(twin) == {
        "blocks": [{"atoms": [1, 3], "source": [2, 4]}, {"atoms": [4], "source": [4, 5]}]
    }


def test_copies_pickles_and_replacements_are_the_interned_object():
    block = Block((2, 4), (1, 3))
    s = Approx((block, Block((4, 5), (4,))))
    for obj in (block, s, EMPTY):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj
        assert dataclasses.replace(obj) is obj
    assert copy.deepcopy({"s": [s, s]})["s"][1] is s
    assert dataclasses.replace(block, atoms=(1, 2, 3)) is Block((2, 4), (1, 2, 3))
    assert dataclasses.replace(s, blocks=s.blocks[:1]) is Approx((block,))
    # a copy never writes into another value's object
    assert EMPTY.blocks == () and Approx() is EMPTY and Approx(()) is EMPTY
    assert s.blocks == (block, Block((4, 5), (4,)))


@pytest.mark.parametrize("source, atoms", [
    ((1, 2), (3, 1)),     # decreasing atoms
    ((1, 2), (3, 3)),     # a repeated atom
    ((1, 2), ()),         # no atom
    ((0, 2), (5,)),       # a source below level 1
    ((3, 3), (5,)),       # an empty source
])
def test_a_refused_block_leaves_no_entry(source, atoms):
    for _ in range(2):  # and is refused again, not found
        with pytest.raises(ParameterError) as refused:
            Block(source, atoms)
        # not even while the error's frames are alive
        assert (source, atoms) not in _BLOCKS
        del refused


def test_threads_building_the_same_values_get_one_object_each():
    values = [((k + 9001, k + 9003), (k + 9000, k + 9001)) for k in range(200)]
    start = threading.Barrier(8)
    built = [None] * 8

    def build(i):
        start.wait(timeout=60)
        built[i] = [Approx((Block(source, atoms),)) for source, atoms in values]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, (source, atoms) in enumerate(values):
        assert all(run[k] is built[0][k] for run in built)
        assert Block(source, atoms) is built[0][k].blocks[0]


def test_dropping_the_last_reference_drops_the_entries():
    source, atoms = (7001, 7003), (7000, 7001)
    s = Approx((Block(source, atoms),))
    alive = weakref.ref(s)
    assert _BLOCKS[(source, atoms)]() is s.blocks[0] and _APPROXES[s.blocks]() is s
    del s
    gc.collect()
    assert alive() is None
    # an Approx entry would keep its key's block, and so its entry, alive
    assert (source, atoms) not in _BLOCKS
    assert not any(key and key[0].source == source for key in _APPROXES)


@pytest.mark.parametrize("value", [{1, 2}, object(), [frozenset()]])
def test_to_jsonable_refuses_values_without_a_canonical_form(value):
    # str() of a set or of a default repr would put unordered or
    # address-bearing text into a byte-identical report
    with pytest.raises(TypeError, match="has no canonical JSON form"):
        to_jsonable(value)


@pytest.mark.parametrize("value", [math.inf, float("inf"), float("1e999")])
def test_every_infinite_float_is_written_inf(value):
    assert to_jsonable({"depth": value}) == {"depth": "inf"}
    assert canonical_json([value]) == '[\n  "inf"\n]\n'


@pytest.mark.parametrize("value", [-math.inf, math.nan, float("nan")])
def test_values_outside_json_are_refused(value):
    # json.dumps would write -Infinity or NaN, which no JSON reader takes
    with pytest.raises(ValueError):
        canonical_json({"x": value})


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


def test_a3_on_a_preorder_reads_no_prefix_mask():
    model = CountingEllentuck(6)
    assert check_axioms(model, "A3")["verdict"] == "pass"
    assert model.restrict_calls == 0 and not model._prefix_masks


# _leq_fin evaluations on a fresh Ellentuck N=5, before the masks.
LEQ_FIN_BEFORE = {"A1": 0, "A2": 1024, "A3": 961}


@pytest.mark.parametrize("axiom", sorted(LEQ_FIN_BEFORE))
def test_leq_fin_evaluations_do_not_grow(axiom):
    model = CountingEllentuck(5)
    assert check_axioms(model, axiom)["verdict"] == "pass"
    assert model.leq_fin_calls <= LEQ_FIN_BEFORE[axiom]


# ---------------------------------------------------------------------------
# Mixing verdicts: the per-reduct pool and decide loop the engine's masks
# replace, written against the model's public relations and memoized per
# (reduct, segment) so that every triple of the fixtures stays cheap.

LEFT_HAT = "no admissible reduct below; the pair leaves the hat"
SPLIT = "equal-colored pair on the reduct but a separating reduct below"


class ReferenceMixing:
    def __init__(self, model, coloring, mu):
        self.model, self.mu = model, mu
        self.colored = tuple(zip(coloring.front.members, coloring.colors))
        self._live = {}
        self._sub = {}

    def live(self, y, a):
        """How many members extending a are realizable in y, and their colors."""
        key = (y, a)
        hit = self._live.get(key)
        if hit is None:
            colors = [
                c for m, c in self.colored
                if m.blocks[:len(a)] == a.blocks and self.model.leq_fin(m, y)
            ]
            hit = self._live[key] = (len(colors), frozenset(colors))
        return hit

    def admissible(self, y, s, t):
        return self.live(y, s)[0] >= self.mu and self.live(y, t)[0] >= self.mu

    def equal_pair(self, y, s, t):
        return not self.live(y, s)[1].isdisjoint(self.live(y, t)[1])

    def pool(self, x, s, t):
        if x not in self._sub:
            self._sub[x] = reference_sub_reducts(self.model, x)
        return [y for y in self._sub[x] if self.admissible(y, s, t)]

    def decide(self, x, s, t):
        pool = self.pool(x, s, t)
        if not pool:
            return (UNDECIDED, LEFT_HAT)
        if all(self.equal_pair(y, s, t) for y in pool):
            return (MIXES, "")
        if not self.equal_pair(x, s, t):
            return (SEPARATES, "")
        return (UNDECIDED, SPLIT)


def _assert_up_mask_is_the_transpose(model):
    reds = model.all_reducts()
    for i, s in enumerate(reds):
        for j, y in enumerate(reds):
            assert (model.up_mask(s) >> j & 1) == (model.sub_mask(y) >> i & 1), (s, y)


def _count_hook_calls(model):
    asked = collections.Counter()
    hook = model._leq_fin

    def counting(s, t):
        asked[s, t] += 1
        return hook(s, t)

    model._leq_fin = counting
    return asked


# The rows and columns are read off the piece masks, so no pair is
# evaluated by _leq_fin at all: stricter than once per pair.

@pytest.mark.parametrize("rows_first", [True, False], ids=["rows-first", "columns-first"])
@pytest.mark.parametrize("build", [lambda: build_ellentuck(5), lambda: build_fin(4)], ids=["e5", "fin4"])
def test_rows_and_columns_evaluate_each_pair_once(build, rows_first):
    model = build()
    reds = model.all_reducts()
    asked = _count_hook_calls(model)
    lines = (model.up_mask, model.sub_mask) if rows_first else (model.sub_mask, model.up_mask)
    for fill in lines:
        for a in reds:
            fill(a)
    assert not asked
    _assert_up_mask_is_the_transpose(model)


@pytest.mark.parametrize(
    "build",
    [lambda: build_ellentuck(5), lambda: build_fin(4), lambda: build_tree(2, 2)],
    ids=["e5", "fin4", "tree22"],
)
def test_axioms_in_turn_evaluate_each_pair_once(build):
    model = build()
    asked = _count_hook_calls(model)
    for axiom in ("A1", "A2", "A3"):
        assert check_axioms(model, axiom)["verdict"] == "pass", axiom
    assert not asked
    _assert_up_mask_is_the_transpose(model)


def _assert_engine_matches_reference(model, coloring, mu, triples):
    engine = MixingEngine(model, coloring, Config(mu=mu))
    reference = ReferenceMixing(model, coloring, mu)
    for x, s, t in triples:
        v = engine.decide(x, s, t)
        assert (v.kind, v.reason) == reference.decide(x, s, t), (x, s, t)


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "tree22"])
def test_mixing_engine_matches_reference_on_every_triple(request, name):
    model = request.getfixturevalue(name)
    _assert_up_mask_is_the_transpose(model)
    front = uniform_front(model, 2)
    colorings = [color_front(front, GENERATORS[g], name=g) for g in ("min", "union")]
    colorings.append(generated_coloring(front, "random-kernel", seed=3))
    segs = hat(model, front)
    triples = [
        (x, s, t) for x in model.all_reducts()
        for i, s in enumerate(segs) for t in segs[i:]
    ]
    for coloring in colorings:
        for mu in (1, 2, 3):
            _assert_engine_matches_reference(model, coloring, mu, triples)


def _assert_engine_matches_reference_on_draws(model, data):
    # mu = 3 is the first threshold with a middle slice in the engine's
    # bit-sliced counter.
    _assert_up_mask_is_the_transpose(model)
    reds = model.all_reducts()
    rank = data.draw(st.integers(1, min(2, max(len(y) for y in reds))))
    front = uniform_front(model, rank)
    coloring = generated_coloring(front, "random-kernel", seed=data.draw(st.integers(0, 99)))
    segs = hat(model, front)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    triples = [(rng.choice(reds), rng.choice(segs), rng.choice(segs)) for _ in range(60)]
    _assert_engine_matches_reference(model, coloring, data.draw(st.sampled_from((1, 2, 3))), triples)


@settings(max_examples=25, deadline=None)
@given(model=fin_instances(), data=st.data())
def test_mixing_engine_matches_reference_on_fin_partitions(model, data):
    _assert_engine_matches_reference_on_draws(model, data)


@settings(max_examples=15, deadline=None)
@given(model=tree_instances(), data=st.data())
def test_mixing_engine_matches_reference_on_drawn_trees(model, data):
    _assert_engine_matches_reference_on_draws(model, data)


@settings(max_examples=15, deadline=None)
@given(model=ellentuck_instances(5), data=st.data())
def test_mixing_engine_matches_reference_on_drawn_ellentuck(model, data):
    _assert_engine_matches_reference_on_draws(model, data)


def _counting(calls, key, fn):
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


def test_deciding_a_warm_table_makes_no_relation_calls():
    model = build_fin(4)
    coloring = color_front(uniform_front(model, 2), GENERATORS["union"], name="union")
    table = mixing_table(model, coloring)
    pairs = sorted(table.verdicts)
    calls = {"leq_fin": 0, "real_bits": 0}
    model.leq_fin = _counting(calls, "leq_fin", model.leq_fin)
    # the table's own engine, and a fresh one on the same warm model
    for engine in (table.engine, MixingEngine(model, coloring)):
        engine.real_bits = _counting(calls, "real_bits", engine.real_bits)
        for i, j in pairs:
            verdict = engine.decide(table.reduct, table.rows[i], table.rows[j])
            assert verdict == table.verdicts[(i, j)]
    assert calls == {"leq_fin": 0, "real_bits": 0}


def test_decide_checks_the_second_segment_when_the_first_row_is_warm():
    model = build_fin(4)
    coloring = color_front(uniform_front(model, 2), GENERATORS["union"], name="union")
    engine = MixingEngine(model, coloring)
    s, off = fa((0,)), fa((0,), (1,), (2,))
    assert engine.decide(model.full, s, s).kind == MIXES
    assert not engine.in_hat(off)
    for pair in ((s, off), (off, s)):
        with pytest.raises(DomainError):
            engine.decide(model.full, *pair)


def test_deciding_on_a_warm_engine_reads_only_its_rows(monkeypatch):
    model = build_fin(4)
    coloring = color_front(uniform_front(model, 2), GENERATORS["union"], name="union")
    table = mixing_table(model, coloring)
    engine = table.engine

    def refuse(*args):
        raise AssertionError("decide on a warm engine left its rows")

    for name in ("pool", "in_hat", "real_bits"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(model, "up_mask", refuse)
    for (i, j), verdict in sorted(table.verdicts.items()):
        assert engine.decide(table.reduct, table.rows[i], table.rows[j]) == verdict
