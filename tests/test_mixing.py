"""Mixing and separation: verdicts, tables, transitivity, weak mixing."""

from __future__ import annotations

import importlib
import itertools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    Approx,
    Block,
    Coloring,
    Config,
    DEFAULT_CONFIG,
    DomainError,
    Front,
    FusionExhaustedError,
    GENERATORS,
    InnerMap,
    MIXES,
    MixingEngine,
    SEPARATES,
    SpaceModel,
    UNDECIDED,
    build_ellentuck,
    build_fin,
    build_tree,
    canonize,
    closure,
    color_front,
    generated_coloring,
    lemma_suite,
    mixing_table,
    transitivity_check,
    uniform_front,
    weak_mixing_detect,
)
from trspace.model import _bits
from helpers import (
    atoms_of,
    ea,
    ellentuck_instances,
    fa,
    fin_instances,
    flip_bits,
    reference_deciding_reduct,
    tree_instances,
)

mixing_module = importlib.import_module("trspace.mixing")


@pytest.fixture(scope="module")
def union2(fin4):
    front = uniform_front(fin4, 2)
    return color_front(front, GENERATORS["union"], name="union")


# ---------------------------------------------------------------------------
# The block-union counterexample.

def test_union_coloring_verdicts(fin4, union2):
    s, t, tp = fa((0,)), fa((0, 2)), fa((0, 1, 2))
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    assert engine.decide(fin4.full, s, t).kind == MIXES
    assert engine.decide(fin4.full, s, tp).kind == MIXES
    assert engine.decide(fin4.full, t, tp).kind == SEPARATES
    assert fin4.depth(fin4.full, s) == 1
    assert fin4.depth(fin4.full, t) == 3
    assert fin4.depth(fin4.full, tp) == 3


def test_union_triple_listed_at_unequal_depths(fin4, union2):
    table = mixing_table(fin4, union2)
    assert not table.undecided_pairs()
    report = transitivity_check(table)
    assert report["verdict"] == "pass"
    assert report["equal_depth"] == []
    shapes = {
        frozenset((atoms_of(item["s"]), atoms_of(item["t"]), atoms_of(item["tprime"])))
        for item in report["unequal_depth"]
    }
    assert frozenset({(((0,),)), ((0, 2),), ((0, 1, 2),)}) in shapes


def test_verdicts_are_symmetric_and_memoized(fin4, union2):
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    s, t = fa((0,)), fa((0, 2))
    assert engine.decide(fin4.full, s, t).kind == engine.decide(fin4.full, t, s).kind


def test_decide_requires_hat_segments(fin4, union2):
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    with pytest.raises(DomainError):
        engine.decide(fin4.full, fa((0,), (1,), (2,)), fa((0,)))


@pytest.mark.parametrize("member, scope", [
    # Two copies of one block: no approximation of the instance.
    (Approx((Block((1, 2), (0,)),) * 2), None),
    # An approximation of the instance, but not inside the scope.
    (ea(0, 1), ea(1, 2, 3)),
])
def test_engine_refuses_members_it_cannot_read(e5, member, scope):
    front = Front((member,), scope=scope or e5.full, instance=e5.instance_tag())
    coloring = Coloring(front, (0,))
    with pytest.raises(DomainError):
        MixingEngine(e5, coloring)
    with pytest.raises(DomainError):
        canonize(e5, coloring)
    with pytest.raises(DomainError):
        mixing_table(e5, coloring)
    with pytest.raises(DomainError):
        lemma_suite(e5, coloring, front.scope, InnerMap(("keep",)))


def test_separated_pair_stays_separated_below(fin4, union2):
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    t, tp = fa((0, 2)), fa((0, 1, 2))
    assert engine.decide(fin4.full, t, tp).kind == SEPARATES
    for y in fin4.sub_reducts(fin4.full):
        if engine.pool(y, t, tp):
            assert engine.decide(y, t, tp).kind == SEPARATES


def test_mixed_pair_stays_mixed_below(fin4, union2):
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    s, t = fa((0,)), fa((0, 2))
    for y in fin4.sub_reducts(fin4.full):
        if engine.pool(y, s, t):
            assert engine.decide(y, s, t).kind == MIXES


def test_a_mu_past_every_member_count_acts_as_the_count_plus_one(fin4, union2):
    # A segment with fewer than mu members has no admissible reduct, so
    # the engine sizes nothing by mu beyond the members it counts.
    huge = mixing_table(fin4, union2, Config(mu=10**15))
    past = mixing_table(fin4, union2, Config(mu=len(union2.front.members) + 1))
    assert (huge.reduct, huge.rows, huge.verdicts) == (past.reduct, past.rows, past.verdicts)
    assert huge.engine.pool(fin4.full, fa((0,)), fa((0, 2))) == 0


# ---------------------------------------------------------------------------
# Tables and fusion.

def test_fused_tables_have_no_undecided_entries(e6):
    front = uniform_front(e6, 2)
    for name in ("constant", "injective", "min", "max", "parity"):
        coloring = color_front(front, GENERATORS[name], name=name)
        table = mixing_table(e6, coloring)
        assert table.to_json()["fused"]
        assert not table.undecided_pairs(), name


def test_fused_tables_on_random_kernels(e6):
    front = uniform_front(e6, 2)
    for seed in range(10):
        coloring = generated_coloring(front, "random-kernel", seed=seed)
        table = mixing_table(e6, coloring)
        assert not table.undecided_pairs(), seed


def test_equal_depth_transitivity_holds_on_samples(e6, fin4):
    e_front = uniform_front(e6, 2)
    f_front = uniform_front(fin4, 2)
    for model, front, names in (
        (e6, e_front, ("constant", "injective", "min", "max", "parity")),
        (fin4, f_front, ("constant", "min", "max", "union", "minmax", "identity")),
    ):
        for name in names:
            coloring = color_front(front, GENERATORS[name], name=name)
            report = transitivity_check(mixing_table(model, coloring))
            assert report["equal_depth"] == [], (model.instance_tag(), name)


def test_table_json_shape(e6):
    front = uniform_front(e6, 2)
    coloring = color_front(front, GENERATORS["min"], name="min")
    payload = mixing_table(e6, coloring).to_json()
    assert set(payload) >= {"reduct", "rows", "depths", "entries", "undecided"}
    assert payload["undecided"] == 0
    assert all({"i", "j", "verdict", "reason"} <= set(e) for e in payload["entries"])


# ---------------------------------------------------------------------------
# Stage A's pair scan against the pair form.

def _stage_a(deciding_reduct, engine):
    """The deciding reduct, or the stage and partial reduct of the
    FusionExhaustedError."""
    try:
        return deciding_reduct(engine)
    except FusionExhaustedError as err:
        return ("exhausted", err.stage, err.partial)


@st.composite
def stage_a_inputs(draw):
    model = draw(st.one_of(ellentuck_instances(), fin_instances(), tree_instances()))
    rank = draw(st.integers(1, min(3, max(len(y) for y in model.all_reducts()))))
    name = draw(st.sampled_from((*sorted(GENERATORS), "random-kernel")))
    seed = draw(st.integers(0, 2**16)) if name == "random-kernel" else None
    config = Config(mu=draw(st.integers(1, 2)), depth_budget=draw(st.sampled_from((None, 1, 2))))
    return model, generated_coloring(uniform_front(model, rank), name, seed=seed), config


@settings(max_examples=150, deadline=None)
@given(inputs=stage_a_inputs())
def test_stage_a_scan_matches_the_pair_form(inputs):
    assert (_stage_a(MixingEngine.deciding_reduct, MixingEngine(*inputs))
            == _stage_a(reference_deciding_reduct, MixingEngine(*inputs)))


def test_stage_a_exhaustion_matches_the_pair_form():
    # Two flipped bits of the Ellentuck N=4 relation leave a pair that no
    # one-block shrink of the full reduct decides at stage 2.
    model = build_ellentuck(4)
    flips = frozenset({(ea(0), ea(0, 1)), (ea(1, 3), ea(0, 1))})
    line = model._line
    model._line = lambda a, up: flip_bits(model, flips, a, up, line(a, up))
    coloring = color_front(uniform_front(model, 2), GENERATORS["max"], name="max")
    outcome = _stage_a(MixingEngine.deciding_reduct, MixingEngine(model, coloring))
    assert outcome == ("exhausted", 2, model.full)
    assert _stage_a(reference_deciding_reduct, MixingEngine(model, coloring)) == outcome


@pytest.mark.parametrize("fixture", ["e6", "fin4", "tree23"])
def test_stage_a_scans_without_a_decide_call_per_pair(fixture, request, monkeypatch):
    # The pair form asks decide 474, 434 and 1,084 times on these.
    model = request.getfixturevalue(fixture)
    coloring = color_front(uniform_front(model, 2), GENERATORS["min"], name="min")
    expected = reference_deciding_reduct(MixingEngine(model, coloring))
    decided, fused = [], []
    decide, fuse = MixingEngine.decide, mixing_module.fuse

    def counting_decide(self, *args):
        decided.append(args)
        return decide(self, *args)

    def counting_fuse(*args, **kwargs):
        fused.append(args)
        return fuse(*args, **kwargs)

    monkeypatch.setattr(MixingEngine, "decide", counting_decide)
    monkeypatch.setattr(mixing_module, "fuse", counting_fuse)
    assert MixingEngine(model, coloring).deciding_reduct() is expected
    assert decided == []
    assert len(fused) == 1


# ---------------------------------------------------------------------------
# Weak mixing.

def test_weak_mixing_witnesses_on_block_unions(fin4, union2):
    X = fin4.full
    got = weak_mixing_detect(fin4, X, fa((0,)), fa((0, 2)), union2)
    assert got is not None
    assert got["w"].atoms == (2,)
    assert got["all_pairs_shaped"]
    assert got["extra_material_above_w"]

    got2 = weak_mixing_detect(fin4, X, fa((0,)), fa((0, 1, 2)), union2)
    assert got2 is not None and got2["w"].atoms == (1,)

    got3 = weak_mixing_detect(fin4, X, fa((1,)), fa((1, 2)), union2)
    assert got3 is not None and got3["w"].atoms == (2,)


def test_weak_mixing_requires_strictly_deeper_partner(fin4, union2):
    with pytest.raises(DomainError):
        weak_mixing_detect(fin4, fin4.full, fa((0, 2)), fa((1, 2)), union2)


def test_weak_mixing_refuses_segments_outside_the_hat(fin4, union2):
    inside, outside = fa((0,)), fa((0,), (1,), (2,))  # the front has rank 2
    assert not MixingEngine(fin4, union2).in_hat(outside)
    for s, t in ((inside, outside), (outside, inside)):
        with pytest.raises(DomainError, match="initial segments of members"):
            weak_mixing_detect(fin4, fin4.full, s, t, union2)


def test_weak_mixing_none_for_separated_pairs(fin4, union2):
    engine = MixingEngine(fin4, union2, DEFAULT_CONFIG)
    assert engine.decide(fin4.full, fa((0,)), fa((1,))).kind == SEPARATES
    assert weak_mixing_detect(fin4, fin4.full, fa((0,)), fa((1,)), union2) is None


def _unequal_depth_mixed_pairs(table):
    for (i, j), verdict in sorted(table.verdicts.items()):
        if verdict.kind == MIXES and table.depths[i] != table.depths[j]:
            s, t = table.rows[i], table.rows[j]
            yield (t, s) if table.depths[j] < table.depths[i] else (s, t)


def test_weak_mixing_refuses_the_engine_of_another_coloring(fin4, union2):
    # Read through the union table's engine, the constant coloring
    # would get witnesses it has none of.
    table = mixing_table(fin4, union2)
    constant = color_front(union2.front, GENERATORS["constant"], name="constant")
    pairs = list(_unequal_depth_mixed_pairs(table))
    assert pairs
    for s, t in pairs:
        assert weak_mixing_detect(fin4, table.reduct, s, t, constant) is None
        with pytest.raises(DomainError):
            weak_mixing_detect(fin4, table.reduct, s, t, constant, engine=table.engine)
        # an equal coloring built anew is the same coloring
        again = color_front(union2.front, GENERATORS["union"], name="union")
        assert weak_mixing_detect(fin4, table.reduct, s, t, again, engine=table.engine) == (
            weak_mixing_detect(fin4, table.reduct, s, t, union2)
        )


def test_weak_mixing_refuses_the_engine_of_another_model(fin4, e5, union2):
    table = mixing_table(fin4, union2)
    e5_min = color_front(uniform_front(e5, 2), GENERATORS["min"], name="min")
    s, t = next(_unequal_depth_mixed_pairs(table))
    with pytest.raises(DomainError):
        weak_mixing_detect(e5, table.reduct, s, t, e5_min, engine=table.engine)
    # the same model under an equal but separately built instance is another model
    with pytest.raises(DomainError):
        weak_mixing_detect(build_fin(4), table.reduct, s, t, union2, engine=table.engine)


def test_no_weak_mixing_on_single_level_extensions(e6):
    front = uniform_front(e6, 2)
    for name in ("constant", "min", "parity"):
        coloring = color_front(front, GENERATORS[name], name=name)
        engine = MixingEngine(e6, coloring, DEFAULT_CONFIG)
        segs = engine.hat_below(e6.full)
        found = 0
        for i, a in enumerate(segs):
            for b in segs[i + 1:]:
                da, db = e6.depth(e6.full, a), e6.depth(e6.full, b)
                if da == db:
                    continue
                lo, hi = (a, b) if da < db else (b, a)
                if engine.decide(e6.full, lo, hi).kind != MIXES:
                    continue
                if weak_mixing_detect(e6, e6.full, lo, hi, coloring, engine=engine):
                    found += 1
        assert found == 0, name


def test_weak_mixing_chain_is_monotone(fin4, union2):
    # transfer blocks along s < t < t'' grow with the deeper partner
    X = fin4.full
    w_st = weak_mixing_detect(fin4, X, fa((0,)), fa((0, 2)), union2)["w"]
    w_stp = weak_mixing_detect(fin4, X, fa((0,)), fa((0, 1, 2)), union2)["w"]
    assert set(w_stp.atoms) <= {1, 2}
    assert w_st.atoms != w_stp.atoms


def reference_weak_mixing(
    model: SpaceModel,
    x: Approx,
    s: Approx,
    t: Approx,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
    engine: Optional[MixingEngine] = None,
) -> Optional[dict]:
    """The weak-mixing detector as first written: every candidate w is
    tried against every admissible reduct in turn. Kept as the reference
    the library's single pass must agree with."""
    eng = engine if engine is not None else MixingEngine(model, coloring, config)
    if not (eng.in_hat(s) and eng.in_hat(t)):
        raise DomainError("weak mixing is defined on initial segments of members")
    ds, dt = model.depth(x, s), model.depth(x, t)
    if not (ds < dt):
        raise DomainError("weak mixing needs strictly increasing depths")
    if eng.decide(x, s, t).kind != MIXES:
        return None
    n = len(s)
    t_extra = t.atom_set() - s.atom_set()
    candidates = [
        w for w in closure(model, x) if set(w.atoms) <= t_extra
    ]
    members, colors = eng.members, eng.coloring.colors
    pairs_by_y = []
    for y in model.reducts_in(eng.pool(x, s, t)):
        eq_pairs = [
            (members[i], members[j])
            for i in _bits(eng.live_bits(y, s)) if len(members[i]) > n
            for j in _bits(eng.live_bits(y, t)) if colors[i] == colors[j]
        ]
        pairs_by_y.append((y, eq_pairs))

    best = None
    for w in sorted(candidates):
        ok = True
        all_shaped = True
        tail_only = True
        evidence = []
        for y, eq_pairs in pairs_by_y:
            if not eq_pairs:
                ok = False
                break
            shaped = []
            for sbar, tbar in eq_pairs:
                blk = sbar.blocks[n]
                if not set(w.atoms) <= set(blk.atoms):
                    ok = False
                    break
                if model.proper_combination(blk, w, s):
                    shaped.append((sbar, tbar))
                    extra = sorted(set(blk.atoms) - set(w.atoms))
                    if extra and extra[0] <= max(w.atoms):
                        tail_only = False
                else:
                    all_shaped = False
            if not ok or not shaped:
                ok = False
                break
            evidence.append({"reduct": y, "pair": shaped[0]})
        if ok:
            best = {
                "check": "weak_mixing",
                "w": w,
                "s": s,
                "t": t,
                "all_pairs_shaped": all_shaped,
                "extra_material_above_w": tail_only,
                "evidence": evidence[:3],
            }
            break
    return best


def test_weak_mixing_agrees_with_reference(e6, fin4, fin4cap2, tree22, tree23):
    # Every pair of interior segments at increasing depths, below the
    # whole instance and below the deciding reduct, on the rank-2 and
    # rank-3 fronts under every named generator.
    witnesses = {}
    for model in (tree22, tree23, build_tree(3, 2), fin4, fin4cap2, e6):
        for rank, name, mu in itertools.product((2, 3), GENERATORS, (1, 2)):
            coloring = generated_coloring(uniform_front(model, rank), name)
            engine = MixingEngine(model, coloring, Config(mu=mu))
            for x in dict.fromkeys((model.full, engine.deciding_reduct())):
                segs = engine.interior_below(x)
                depth = {a: model.depth(x, a) for a in segs}
                for s, t in itertools.permutations(segs, 2):
                    if depth[s] < depth[t]:
                        args = (model, x, s, t, coloring, engine.config)
                        got = weak_mixing_detect(*args, engine=engine)
                        assert got == reference_weak_mixing(*args, engine=engine)
                        witnesses[model.kind] = witnesses.get(model.kind, 0) + (got is not None)
    # Single-level extensions never carry a transfer block.
    assert witnesses["fin"] and witnesses["tree"] and not witnesses["ellentuck"]
