"""Canonization: inner maps, the guided search, the exhaustive oracle,
structure lemmas, maximality, recoloring and avoidance."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    Coloring,
    Config,
    DEFAULT_CONFIG,
    DomainError,
    EMPTY,
    GENERATORS,
    FusionExhaustedError,
    InnerMap,
    MixingEngine,
    NoInnerWitnessError,
    a4star_search,
    avoidance_check,
    build_ellentuck,
    canonical_json,
    canonize,
    color_front,
    eval_inner,
    generated_coloring,
    lemma_suite,
    maximality_check,
    mixing_table,
    oracle_canonize,
    pigeonhole_A4,
    property_p_check,
    restrict_front,
    subfront,
    uniform_front,
    verify_canonical,
)
from trspace.model import first_mismatch
from helpers import atoms_of, ea, ellentuck_instances, fa, fin_instances, tree_instances

# The package exports the canonize function under the submodule's name.
canonize_module = importlib.import_module("trspace.canonize")


EXPECTED_ELLENTUCK_PHI = {
    "constant": ("drop", "drop"),
    "injective": ("keep", "keep"),
    "min": ("keep", "drop"),
    "max": ("drop", "keep"),
}

EXPECTED_FIN_PHI = {
    "constant": ("drop",),
    "min": ("min",),
    "max": ("max",),
    "minmax": ("minmax",),
    "identity": ("identity",),
}


# ---------------------------------------------------------------------------
# Inner map evaluation.

def test_eval_inner_drops_empty_selections(e6):
    phi = InnerMap(("keep", "drop"))
    assert eval_inner(e6, phi, ea(1, 4)) == ((1,),)
    assert eval_inner(e6, InnerMap(("drop", "drop")), ea(1, 4)) == ()
    assert eval_inner(e6, InnerMap(("keep", "keep")), ea(1, 4)) == ((1,), (4,))


def test_eval_inner_rejects_segments_beyond_arity(e6):
    with pytest.raises(DomainError):
        eval_inner(e6, InnerMap(("keep",)), ea(1, 4))


def test_inner_family_starts_with_drop(e6, fin4, tree22):
    for model in (e6, fin4, tree22):
        family = model.selector_names()
        assert family[0] == "drop"


# ---------------------------------------------------------------------------
# The guided pipeline on named generators.

def test_ellentuck_generator_forms(ellentuck_runs):
    by_name = {coloring.name: report for coloring, report in ellentuck_runs}
    for name, want in EXPECTED_ELLENTUCK_PHI.items():
        report = by_name[name]
        assert report.verdict == "pass", name
        assert report.phi.selectors == want, name
        assert len(report.witness) == 6, name
        assert report.oracle_agreement["agrees"], name


def test_fin_selector_recovery(fin_runs):
    for coloring, report in fin_runs:
        want = EXPECTED_FIN_PHI[coloring.name]
        assert report.verdict == "pass"
        assert report.phi.selectors == want, coloring.name
        assert len(report.witness) >= 2
        assert report.oracle_agreement["agrees"], coloring.name


def test_random_kernels_all_verify_with_oracle(ellentuck_runs):
    for coloring, report in ellentuck_runs:
        assert report.verdict == "pass", coloring.name
        assert report.oracle_agreement["agrees"], coloring.name
        assert report.oracle_agreement["reverified"], coloring.name


def test_parity_witness_keeps_one_odd_top_atom(e6):
    front = uniform_front(e6, 2)
    coloring = color_front(front, GENERATORS["parity"], name="parity")
    report = canonize(e6, coloring)
    assert report.verdict == "pass"
    assert report.phi.selectors == ("drop", "drop")
    assert atoms_of(report.witness) == ((0,), (2,), (4,), (5,))


def test_canonize_is_invariant_under_color_relabeling(e6):
    front = uniform_front(e6, 2)
    base = color_front(front, GENERATORS["min"], name="min")
    relabeled = Coloring(front, tuple((c + 5) % 7 for c in base.colors), name="shifted")
    a = canonize(e6, base)
    b = canonize(e6, relabeled)
    assert a.phi.selectors == b.phi.selectors
    assert a.witness == b.witness


def test_fallback_single_member_witness(e6):
    front = uniform_front(e6, 2)
    coloring = generated_coloring(front, "random-kernel", seed=65)
    report = canonize(e6, coloring)
    assert report.verdict == "pass"
    assert report.stats["fallback"]
    assert len(report.witness) == 2  # a member carried as its own reduct


def test_tree_canonize_within_its_selector_family(tree23):
    front = uniform_front(tree23, 2)
    for name, want in (("constant", ("drop", "drop")), ("injective", ("full", "full"))):
        coloring = color_front(front, GENERATORS[name], name=name)
        report = canonize(tree23, coloring, oracle=True)
        assert report.verdict == "pass"
        assert report.phi.selectors == want
        assert report.oracle_agreement["agrees"]
        assert report.stats["family_limited"]


def test_stage_a_exhaustion_assembles_from_the_partial_reduct(fin4, monkeypatch):
    def exhausted(engine):
        raise FusionExhaustedError(0, partial=engine.model.full)

    monkeypatch.setattr(MixingEngine, "deciding_reduct", exhausted)
    coloring = generated_coloring(uniform_front(fin4, 2), "min")
    report = canonize(fin4, coloring)
    assert report.verdict == "pass"
    assert report.stats["stage_a_exhausted"] is True
    assert report.stats["deciding_reduct_size"] == len(fin4.full)
    assert verify_canonical(fin4, report.witness, report.phi, coloring) == (True, None)


def test_canonize_skips_starts_where_no_selector_fuses(e5, monkeypatch):
    # Stage A still fuses; every stage-B fusion fails, so each start with
    # a position no selector matches as it stands raises NoInnerWitnessError.
    def exhausted(model, oracle, start=None, config=DEFAULT_CONFIG):
        raise FusionExhaustedError(0, partial=start)

    raised = []
    assemble = canonize_module._assemble

    def recording(engine, z0, config):
        try:
            return assemble(engine, z0, config)
        except Exception as err:
            raised.append(type(err))
            raise

    monkeypatch.setattr(canonize_module, "fuse", exhausted)
    monkeypatch.setattr(canonize_module, "_assemble", recording)
    coloring = generated_coloring(uniform_front(e5, 2), "parity")
    report = canonize(e5, coloring)
    assert raised == [NoInnerWitnessError] * (canonize_module.RETRIES + 1)
    assert report.stats["retries_used"] == canonize_module.RETRIES == 3
    assert report.stats["fallback"] is True
    assert report.verdict == "pass"
    assert verify_canonical(e5, report.witness, report.phi, coloring) == (True, None)


def test_stage_b_builds_each_position_oracle_once(e5, monkeypatch):
    # Parity on AU2 fails the as-is test, so the fusion pass runs too.
    built, oracles, fused = [], [], []
    position_oracle, fuse = canonize_module._position_oracle, canonize_module.fuse

    def building(engine, z0, pos, name):
        built.append((z0, pos, name))
        oracles.append(position_oracle(engine, z0, pos, name))
        return oracles[-1]

    def fusing(model, oracle, **kwargs):
        fused.append(oracle)
        return fuse(model, oracle, **kwargs)

    monkeypatch.setattr(canonize_module, "_position_oracle", building)
    monkeypatch.setattr(canonize_module, "fuse", fusing)
    assert canonize(e5, generated_coloring(uniform_front(e5, 2), "parity")).verdict == "pass"
    assert fused
    assert len(built) == len(set(built))
    assert all(any(o is b for b in oracles) for o in fused)


def test_canon_report_json_shape(fin_runs):
    payload = fin_runs[0][1].to_json()
    assert set(payload) >= {"witness", "phi", "verdict", "oracle_agreement", "stats"}


# Drawn colorings on drawn instances: a named generator or a seeded
# random kernel on a front of rank 1 or 2. Maximal size is not asserted;
# some runs end one block short of the oracle's largest witness.

@st.composite
def drawn_colorings(draw, instances):
    model = draw(instances)
    rank = draw(st.integers(1, min(2, max(len(y) for y in model.all_reducts()))))
    name = draw(st.sampled_from((*sorted(GENERATORS), "random-kernel")))
    seed = draw(st.integers(0, 2**16)) if name == "random-kernel" else None
    return model, generated_coloring(uniform_front(model, rank), name, seed=seed)


def _assert_canonizes(model, coloring):
    report = canonize(model, coloring, oracle=True)
    assert report.verdict == "pass"
    assert report.oracle_agreement["agrees"]
    assert report.oracle_agreement["reverified"]
    assert not mixing_table(model, coloring).undecided_pairs()
    again = canonize(model, coloring, oracle=True)
    assert canonical_json(again.to_json()) == canonical_json(report.to_json())


@settings(max_examples=200, deadline=None)
@given(drawn=drawn_colorings(st.one_of(fin_instances(), tree_instances())))
def test_drawn_colorings_canonize_on_fin_and_trees(drawn):
    _assert_canonizes(*drawn)


@settings(max_examples=100, deadline=None)
@given(drawn=drawn_colorings(ellentuck_instances()))
def test_drawn_colorings_canonize_on_ellentuck(drawn):
    _assert_canonizes(*drawn)


# ---------------------------------------------------------------------------
# Verification.

def test_verify_canonical_flags_the_first_violator(e6):
    front = uniform_front(e6, 2)
    cmin = color_front(front, GENERATORS["min"], name="min")
    ok, _ = verify_canonical(e6, e6.full, InnerMap(("keep", "drop")), cmin)
    assert ok
    bad, pair = verify_canonical(e6, e6.full, InnerMap(("keep", "keep")), cmin)
    assert not bad
    s, t = pair
    assert cmin(s) == cmin(t)
    assert eval_inner(e6, InnerMap(("keep", "keep")), s) != eval_inner(
        e6, InnerMap(("keep", "keep")), t
    )


@settings(max_examples=60, deadline=None)
@given(drawn=drawn_colorings(st.one_of(fin_instances(), tree_instances(), ellentuck_instances())), data=st.data())
def test_verify_canonical_matches_the_pair_scan(drawn, data):
    # The one-pass kernel check against the pair scan it short-cuts.
    model, coloring = drawn
    family = st.sampled_from(model.selector_names())
    phi = InnerMap(tuple(data.draw(family) for _ in range(coloring.front.arity())))
    x = data.draw(st.sampled_from(model.all_reducts()))
    members = model.below(coloring.front.members, x)
    values = [eval_inner(model, phi, m) for m in members]
    pair = first_mismatch(members, lambda p, q: coloring(p) == coloring(q), values)
    assert verify_canonical(model, x, phi, coloring) == (pair is None, pair)


# ---------------------------------------------------------------------------
# The exhaustive oracle.

def test_oracle_single_hit_for_constant(e5):
    front = uniform_front(e5, 1)
    coloring = color_front(front, GENERATORS["constant"], name="constant")
    hits = oracle_canonize(e5, coloring)
    assert len(hits) == 1
    x, phi = hits[0]
    assert x == e5.full
    assert phi.selectors == ("drop",)


def test_oracle_budget_guard(e6):
    from trspace import BudgetExceededError

    front = uniform_front(e6, 2)
    coloring = color_front(front, GENERATORS["min"], name="min")
    with pytest.raises(BudgetExceededError):
        oracle_canonize(e6, coloring, Config(max_kernels=10))


def test_oracle_skips_reducts_carrying_no_member(e5):
    # AU2 above ({0}): the members ({0},{k}). Colored (0, 0, 1, 1), no map
    # verifies on the full scope, and the length-4 reducts without atom 0
    # carry no member, so every hit is one size smaller.
    front = subfront(e5, uniform_front(e5, 2), ea(0))
    coloring = Coloring(front, (0, 0, 1, 1))
    assert e5.below(front.members, ea(1, 2, 3, 4)) == ()
    hits = oracle_canonize(e5, coloring)
    assert len(hits) == 12
    assert {len(x) for x, _ in hits} == {3}
    report = canonize(e5, coloring, oracle=True)
    assert len(report.witness) == 3
    assert report.stats["witness_is_max_size"]
    assert report.oracle_agreement["agrees"]


def test_a_witness_one_block_short_is_not_max_size():
    # AU1 colored (0, 1, 1, 1): the witness keeps two blocks, one short
    # of the oracle's largest, and the flag says so.
    e4 = build_ellentuck(4)
    report = canonize(e4, Coloring(uniform_front(e4, 1), (0, 1, 1, 1)), oracle=True)
    assert len(report.witness) == report.stats["witness_size"] == 2
    assert report.oracle_agreement["oracle_max_size"] == 3
    assert report.stats["witness_is_max_size"] is False


def test_grow_enlarges_the_witness_past_the_deciding_reduct(e5):
    # max on AU3: stage A stops at four blocks, and _grow takes the
    # witness back up to the full reduct, where the map still verifies.
    coloring = color_front(uniform_front(e5, 3), GENERATORS["max"], name="max")
    report = canonize(e5, coloring, oracle=True)
    assert report.stats["deciding_reduct_size"] == 4
    assert report.witness == e5.full
    assert report.stats["witness_size"] == len(e5.full) == 5
    assert report.stats["witness_is_max_size"] is True


@pytest.mark.parametrize("name", ["constant", "min", "injective"])
def test_searches_stay_inside_the_fronts_scope(e5, name):
    # AU1 restricted to ({0},{1},{2}) is a front of that reduct alone:
    # the grown witness, the oracle's hits and the common reduct of
    # maximality_check all lie below it.
    scope = ea(0, 1, 2)
    front = restrict_front(e5, uniform_front(e5, 1), scope)
    assert (front.scope, front.flags, len(front)) == (scope, (), 3)
    coloring = generated_coloring(front, name)
    report = canonize(e5, coloring, oracle=True)
    assert report.witness == scope
    assert report.oracle_agreement["oracle_max_size"] == 3
    assert report.stats["witness_is_max_size"]
    assert all(e5.leq_fin(x, scope) for x, _ in oracle_canonize(e5, coloring))
    common = maximality_check(e5, coloring, report.phi, report.phi)["common"]
    assert common == scope


# ---------------------------------------------------------------------------
# Inner pigeonhole (the selector-matching search).

def test_search_inner_matches_min_kernel(fin4):
    coloring = lambda p: p.blocks[-1].atoms[0]
    witness, selector = a4star_search(fin4, EMPTY, fin4.full, coloring, fin4.selector_names())
    assert selector == "min"
    assert witness == fin4.full


def test_search_inner_subsumes_plain_pigeonhole():
    e8 = build_ellentuck(8)
    parity = lambda p: p.blocks[-1].atoms[0] % 2
    plain = pigeonhole_A4(e8, EMPTY, e8.full, parity)
    witness, selector = a4star_search(e8, EMPTY, e8.full, parity, e8.selector_names())
    assert selector == "drop"
    assert witness == plain
    assert len({parity(p) for p in e8.extensions(EMPTY, witness)}) == 1


def test_search_inner_no_witness_in_family(e5):
    colors = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}
    coloring = lambda p: colors[p.blocks[-1].atoms[0]]
    family = e5.selector_names()
    witness, selector = a4star_search(e5, EMPTY, e5.full, coloring, family)
    assert (atoms_of(witness), selector) == (((0,), (1,), (4,)), "keep")
    assert a4star_search(e5, EMPTY, e5.full, coloring, family, Config(mu=4)) is None


def test_search_inner_requires_extensions(e5):
    assert a4star_search(e5, e5.full, e5.full, lambda p: 0, e5.selector_names()) is None


# ---------------------------------------------------------------------------
# Structure lemmas.

def test_lemma_suite_on_named_witnesses(e6, fin4, ellentuck_runs, fin_runs):
    by_name = {c.name: (c, r) for c, r in ellentuck_runs}
    for name in EXPECTED_ELLENTUCK_PHI:
        coloring, report = by_name[name]
        suite = lemma_suite(e6, coloring, report.witness, report.phi)
        assert suite["verdict"] == "pass", name
        assert suite["equal_values_mix"]["violations"] == []
        assert suite["prefix_freeness"]["violations"] == []
        assert suite["color_respects_phi"]["violations"] == []
        assert suite["class_uniqueness"]["violations"] == []
    for coloring, report in fin_runs:
        suite = lemma_suite(fin4, coloring, report.witness, report.phi)
        assert suite["verdict"] == "pass", coloring.name


def test_lemma_suite_flags_a_wrong_map(e6):
    front = uniform_front(e6, 2)
    cmin = color_front(front, GENERATORS["min"], name="min")
    report = canonize(e6, cmin)
    # feed a map that does not respect the coloring
    suite = lemma_suite(e6, cmin, report.witness, InnerMap(("drop", "keep")))
    assert suite["verdict"] == "fail"
    assert suite["color_respects_phi"]["violations"]


def test_lemma_suite_counts_color_and_class_violations(fin3):
    constant = generated_coloring(uniform_front(fin3, 1), "constant")
    report = canonize(fin3, constant)
    # min separates what the constant coloring joins, and splits the
    # extensions mixing with one segment.
    suite = lemma_suite(fin3, constant, report.witness, InnerMap(("min",)))
    assert suite["verdict"] == "fail"
    assert suite["equal_values_mix"]["violations"] == []
    assert suite["prefix_freeness"]["violations"] == []
    assert len(suite["color_respects_phi"]["violations"]) == 14
    assert len(suite["class_uniqueness"]["violations"]) == 22
    assert suite["witness"] == suite["color_respects_phi"]["violations"][0]


def count_lemma_questions(model, coloring, monkeypatch):
    """The decide calls of lemma_suite on canonize's witness, the count
    its checks should make, and the count of the plain pair scans."""
    report = canonize(model, coloring)
    w, phi = report.witness, report.phi
    engine = MixingEngine(model, coloring)
    hat_w = engine.hat_below(w)
    values = [eval_inner(model, phi, a) for a in hat_w]
    depth = {a: model.depth(w, a) for a in hat_w}

    def carries_two_values(base, d):
        selector = phi.selectors[len(base)]
        return len({
            model.apply_selector(selector, p.blocks[-1])
            for p in engine.live_extensions(base, w) if depth[p] == d
        }) > 1

    # equal-values-mix asks once per phi-equal pair of hat segments,
    # class-uniqueness once per interior base, hat segment t and live
    # extension of the base at t's depth; the plain scan asked at every
    # depth, the checks ask only where the extensions carry two values.
    equal_pairs = sum(
        values[i] == values[j] for i in range(len(hat_w)) for j in range(i + 1, len(hat_w))
    )
    asked = [
        (base, depth[t])
        for base in engine.interior_below(w) if len(base) < len(phi)
        for p in engine.live_extensions(base, w)
        for t in hat_w if depth[p] == depth[t]
    ]
    expected = equal_pairs + sum(carries_two_values(base, d) for base, d in asked)
    plain = equal_pairs + len(asked)
    calls = []
    decide = MixingEngine.decide

    def counting(self, *args):
        calls.append(args)
        return decide(self, *args)

    monkeypatch.setattr(MixingEngine, "decide", counting)
    assert lemma_suite(model, coloring, w, phi)["verdict"] == "pass"
    return len(calls), expected, plain


def test_lemma_suite_asks_each_mixing_question_once(fin4, monkeypatch):
    cmin = color_front(uniform_front(fin4, 1), GENERATORS["min"], name="min")
    calls, expected, plain = count_lemma_questions(fin4, cmin, monkeypatch)
    assert calls == expected == 119
    assert expected <= plain == 120


def test_lemma_suite_asks_mixing_only_where_a_class_can_split(e6, monkeypatch):
    cmax = color_front(uniform_front(e6, 2), GENERATORS["max"], name="max")
    calls, expected, plain = count_lemma_questions(e6, cmax, monkeypatch)
    assert calls == expected == 35
    assert expected <= plain == 115


# ---------------------------------------------------------------------------
# Maximality and the recoloring probe.

def test_maximality_identity_alternative(e6):
    front = uniform_front(e6, 2)
    cmin = color_front(front, GENERATORS["min"], name="min")
    phi = InnerMap(("keep", "drop"))
    report = maximality_check(e6, cmin, phi, phi)
    assert report["verdict"] == "pass"
    assert len(report["common"]) == 6


def test_maximality_rejects_nonverifying_alternative(e6):
    front = uniform_front(e6, 2)
    cmin = color_front(front, GENERATORS["min"], name="min")
    with pytest.raises(DomainError):
        maximality_check(e6, cmin, InnerMap(("keep", "drop")), InnerMap(("keep", "keep")))


def test_maximality_containment_across_distinct_maps(fin4):
    front = uniform_front(fin4, 1)
    cmm = color_front(front, GENERATORS["minmax"], name="minmax")
    report = maximality_check(fin4, cmm, InnerMap(("minmax",)), InnerMap(("identity",)))
    assert report["verdict"] == "pass"
    assert len(report["common"]) == 2
    assert report["witness"] is not None


def test_maximality_undecided_without_a_containing_reduct(tree22):
    # The injective coloring of tree AU2: (drop, full) and (full, full)
    # both verify on the full tree, and no reduct below it that carries
    # a member has the alternative's outputs inside the reference's.
    # Reducts without members, such as the one-level subtrees, are
    # passed over.
    coloring = generated_coloring(uniform_front(tree22, 2), "injective")
    report = maximality_check(
        tree22, coloring, InnerMap(("drop", "full")), InnerMap(("full", "full"))
    )
    assert report["verdict"] == "undecided"
    assert report["witness"] is None
    assert report["common"] == tree22.full
    assert any(
        not tree22.below(coloring.front.members, z) for z in tree22.sub_reducts(tree22.full)
    )


def test_property_p_passes_on_generators(e6, fin4):
    e_front = uniform_front(e6, 2)
    cmin = color_front(e_front, GENERATORS["min"], name="min")
    report = property_p_check(e6, cmin)
    assert report["verdict"] == "pass"
    assert report["stats"]["zero_recolorings_checked"] > 0
    f_front = uniform_front(fin4, 1)
    cc = color_front(f_front, GENERATORS["min"], name="min")
    assert property_p_check(fin4, cc)["verdict"] == "pass"


def test_property_p_searches_each_segment_once(e6, monkeypatch):
    cmin = color_front(uniform_front(e6, 2), GENERATORS["min"], name="min")
    engine = MixingEngine(e6, cmin)
    interior = engine.interior_below(engine.deciding_reduct())
    failing = next(a for a in interior if len(a) == 1)
    searched = []
    search = canonize_module.a4star_search

    def counting(model, s, *args):
        searched.append(s)
        if s == failing:
            return None
        return search(model, s, *args)

    monkeypatch.setattr(canonize_module, "a4star_search", counting)
    report = property_p_check(e6, cmin)
    # A failed search skips every pair of its segment, and is not retried.
    partners = sum(1 for a in interior if len(a) == 1 and a != failing)
    assert report["stats"]["pairs_skipped"] == partners > 0
    assert len(searched) == len(set(searched)) > 1


# ---------------------------------------------------------------------------
# Avoidance.

def test_avoidance_branches(e6, fin4):
    report = avoidance_check(e6, ea(0), e6.full)
    assert report["verdict"] == "pass" and not report["single_extension"]
    tiny = avoidance_check(e6, EMPTY, ea(3))
    assert tiny["verdict"] == "pass" and tiny["single_extension"]
    assert avoidance_check(fin4, fa((0,)), fin4.full)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# Level-matching of one-step extensions at equal depth.

def _extension_level_profiles(model, front):
    profiles = {}
    for s in front.members:
        d = model.depth(model.full, s)
        levels = {
            frozenset(range(b.source[0], b.source[1]))
            for b in model.extension_blocks(s, model.full)
        }
        profiles.setdefault(d, []).append((s, levels))
    return profiles


@pytest.mark.parametrize("rank", (1, 2))
def test_equal_depth_segments_extend_from_equal_levels(e6, fin4, rank):
    for model in (e6, fin4):
        profiles = _extension_level_profiles(model, uniform_front(model, rank))
        for d, entries in profiles.items():
            baseline = entries[0][1]
            for s, levels in entries[1:]:
                assert levels == baseline, (model.instance_tag(), d, atoms_of(s))
