"""The one kernel test against the loops it replaces.

A.4 (a monochromatic reduct), A.4* (a selector with the coloring's
kernel), stage B (a selector with the mixing kernel), verification
(f(s) = f(t) iff phi(s) = phi(t)) and the oracle's agreement (phi and
phi_o with one kernel on the common members) are all one pairwise scan,
first_mismatch. Each used to have its own loop; those loops are kept
here as references, and every answer must agree with them: the same
witness, the same selector, the same first violating pair. The oracle
decides on class ids instead; its first_mismatch loop over every map is
kept here as its reference.
"""

from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from trspace import (
    DEFAULT_CONFIG,
    EMPTY,
    GENERATORS,
    Approx,
    BudgetExceededError,
    Coloring,
    Config,
    Front,
    FusionExhaustedError,
    InnerMap,
    MixingEngine,
    TruncationTooShallowError,
    a4star_search,
    build_ellentuck,
    build_fin,
    build_tree,
    canonical_json,
    canonize,
    color_front,
    derive_seed,
    eval_inner,
    front_from_json,
    front_to_json,
    generated_coloring,
    hat,
    oracle_agreement,
    oracle_canonize,
    pigeonhole_A4,
    restricted_growth_strings,
    uniform_front,
    verify_canonical,
    witness_sort_key,
)
from helpers import ea, ellentuck_instances, fin_instances, flip_bits, tree_instances
from trspace.canonize import _position_oracle
from trspace.model import SpaceModel, first_mismatch, kernel_ids


# ---------------------------------------------------------------------------
# Reference loops: each canonical claim as its own scan, as they were
# before the shared kernel test.

def reference_pigeonhole(model, s, x, coloring, mu):
    """The monochromatic reduct of [s, x] with the most extensions, ties
    by least key; None when there is none. Each extension's colour is
    asked on first use: under a defective relation an extension inside
    y <= x need not be one of extensions(s, x)."""
    colors = {}

    def color(p):
        if p not in colors:
            colors[p] = coloring(p)
        return colors[p]

    best = None
    for y in model.basic(s, x):
        exts = model.extensions(s, y)
        if len(exts) < mu or len({color(p) for p in exts}) != 1:
            continue
        cand = (-len(exts), y.key, y)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return None if best is None else best[2]


def reference_kernel_matches(pairs_equal, model, name, exts):
    """A pair relation on extensions against selector equality on their
    last blocks."""
    for i, p in enumerate(exts):
        vp = model.apply_selector(name, p.blocks[-1])
        for q in exts[i + 1:]:
            vq = model.apply_selector(name, q.blocks[-1])
            if pairs_equal(p, q) != (vp == vq):
                return False
    return True


def reference_search_inner(model, s, x, coloring, mu, family=None):
    ranked = sorted(model.basic(s, x), key=lambda y: (-len(model.extensions(s, y)), y.key))
    for y in ranked:
        exts = model.extensions(s, y)
        if len(exts) < mu:
            continue
        for name in family or model.selector_names():
            if reference_kernel_matches(lambda p, q: coloring(p) == coloring(q), model, name, exts):
                return y, name
    return None


def reference_verify(model, x, phi, coloring):
    members = model.below(coloring.front.members, x)
    values = [eval_inner(model, phi, m) for m in members]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            same_f = coloring(members[i]) == coloring(members[j])
            if same_f != (values[i] == values[j]):
                return False, (members[i], members[j])
    return True, None


def reference_oracle_canonize(
    model,
    coloring,
    config: Config = DEFAULT_CONFIG,
) -> tuple[tuple[Approx, InnerMap], ...]:
    """The oracle as it was before class ids: every (reduct, map) by
    first_mismatch over the members below the reduct; every verifying
    pair of maximal witness size."""
    family = model.selector_names()
    arity = coloring.front.arity()
    reducts = model.all_reducts(config.max_reducts)
    total = len(reducts) * len(family) ** arity
    if total > config.max_kernels:
        raise BudgetExceededError(
            f"oracle would enumerate {total} candidates, budget is {config.max_kernels}"
        )
    maps = [InnerMap(names) for names in itertools.product(family, repeat=arity)]
    # verify_canonical per (x, phi), with the members below x found once
    # per reduct and each member's color and phi value once per run
    color = {m: coloring(m) for m in coloring.front.members}
    values: list[dict[Approx, tuple]] = [{} for _ in maps]

    def same_color(p: Approx, q: Approx) -> bool:
        return color[p] == color[q]

    hits: list[tuple[Approx, InnerMap]] = []
    best = -1
    for x in sorted(reducts, key=witness_sort_key):
        if len(x) < best:
            break
        members = model.below(coloring.front.members, x)
        if not members:
            continue
        for phi, memo in zip(maps, values):
            for m in members:
                if m not in memo:
                    memo[m] = eval_inner(model, phi, m)
            if first_mismatch(members, same_color, [memo[m] for m in members]) is not None:
                continue
            if len(x) > best:
                hits = [(x, phi)]
                best = len(x)
            elif len(x) == best:
                hits.append((x, phi))
    return tuple(sorted(hits, key=lambda h: (h[0].key, h[1].selectors)))


def reference_member_kernel(values):
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def reference_oracle_agreement(model, coloring, witness, phi, oracle_hits):
    ok, _ = reference_verify(model, witness, phi, coloring)
    agree = False
    common_best = 0
    if ok:
        for x_o, phi_o in oracle_hits:
            common = model.below(model.below(coloring.front.members, witness), x_o)
            ours = reference_member_kernel([eval_inner(model, phi, m) for m in common])
            theirs = reference_member_kernel([eval_inner(model, phi_o, m) for m in common])
            if ours == theirs:
                agree = True
                common_best = max(common_best, len(common))
    return {
        "agrees": bool(ok and agree and oracle_hits),
        "reverified": ok,
        "oracle_witnesses": len(oracle_hits),
        "oracle_max_size": len(oracle_hits[0][0]) if oracle_hits else 0,
        "common_members": common_best,
    }


# ---------------------------------------------------------------------------
# The scan itself.

def test_first_mismatch_names_the_first_disagreeing_pair():
    items = ("a", "b", "c", "d")
    colors = {"a": 0, "b": 0, "c": 1, "d": 1}
    same = lambda p, q: colors[p] == colors[q]
    assert first_mismatch(items, same, [5, 5, 6, 6]) is None
    assert first_mismatch(items, same, [5, 5, 6, 7]) == ("c", "d")
    assert first_mismatch(items, same, [5, 6, 6, 6]) == ("a", "b")
    assert first_mismatch(items, same, [5, 5, 5, 6]) == ("a", "c")
    assert first_mismatch((), same, []) is None


@pytest.mark.parametrize("k", range(7))
def test_kernel_ids_are_the_restricted_growth_strings(k):
    # The normal form of every labeling of k points by k labels: exactly
    # the restricted growth strings of length k, a fixed point of
    # kernel_ids, and the same kernel as the labeling it came from.
    image = set()
    for labels in itertools.product(range(k), repeat=k):
        ids = kernel_ids(labels)
        assert kernel_ids(ids) == ids
        assert first_mismatch(range(k), lambda i, j: labels[i] == labels[j], ids) is None
        image.add(ids)
    assert image == set(restricted_growth_strings(k))


# ---------------------------------------------------------------------------
# A.4 and A.4* on every short base under seeded two-colorings.

SEEDS = range(6)


def _short_bases(model):
    return [s for s in model.approximations() if len(s) <= 2 and model.extensions(s, model.full)]


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "tree22"])
def test_a4_searches_match_the_reference_loops(request, name):
    model = request.getfixturevalue(name)
    for s in _short_bases(model):
        domain = model.extensions(s, model.full)
        for seed in SEEDS:
            rng = random.Random(derive_seed(name, s.key, seed))
            table = {p: rng.randrange(2) for p in domain}
            for mu in (1, 2):
                config = Config(mu=mu)
                expected = reference_pigeonhole(model, s, model.full, table.__getitem__, mu)
                if expected is None:
                    with pytest.raises(TruncationTooShallowError, match="no monochromatic"):
                        pigeonhole_A4(model, s, model.full, table.__getitem__, config)
                else:
                    got = pigeonhole_A4(model, s, model.full, table.__getitem__, config)
                    assert got == expected, (s, seed, mu)
                expected = reference_search_inner(model, s, model.full, table.__getitem__, mu)
                got = a4star_search(
                    model, s, model.full, table.__getitem__, model.selector_names(), config
                )
                assert got == expected, (s, seed, mu)


# ---------------------------------------------------------------------------
# Verification, the oracle's agreement and stage B on every reduct and
# every map of the family, for three colorings of AU1 and AU2.

def _colorings(model):
    for rank in (1, 2):
        front = uniform_front(model, rank)
        for g in ("min", "union"):
            yield color_front(front, GENERATORS[g], name=g)
        yield generated_coloring(front, "random-kernel", seed=3)


@pytest.mark.parametrize("name", ["e5", "fin4"])
def test_verify_and_agreement_match_the_reference_loops(request, name):
    model = request.getfixturevalue(name)
    family = model.selector_names()
    for coloring in _colorings(model):
        maps = [InnerMap(names) for names in itertools.product(family, repeat=coloring.front.arity())]
        hits = oracle_canonize(model, coloring)
        # every map on the full reduct is a rival too, so kernels also differ
        rivals = hits + tuple((model.full, phi_o) for phi_o in maps)
        for x in model.all_reducts():
            for phi in maps:
                ok, pair = verify_canonical(model, x, phi, coloring)
                assert (ok, pair) == reference_verify(model, x, phi, coloring), (x, phi)
                if not ok or len(model.below(coloring.front.members, x)) < 2:
                    continue
                for rival in rivals:
                    assert oracle_agreement(model, coloring, x, phi, (rival,)) == (
                        reference_oracle_agreement(model, coloring, x, phi, (rival,))
                    ), (x, phi, rival)


@pytest.mark.parametrize("name", ["e5", "fin4"])
def test_stage_b_matches_the_reference_loop(request, name):
    model = request.getfixturevalue(name)
    for coloring in _colorings(model):
        engine = MixingEngine(model, coloring)
        try:
            z0 = engine.deciding_reduct()
        except FusionExhaustedError as err:
            z0 = err.partial
        below = model.sub_reducts(z0)
        for pos in range(coloring.front.arity()):
            for sel in model.selector_names():
                oracle = _position_oracle(engine, z0, pos, sel)
                for a in filter(oracle.domain, hat(model, coloring.front)):
                    for y in below:
                        expected = not engine.live_bits(y, a) or reference_kernel_matches(
                            lambda p, q: engine.mixes(z0, p, q), model, sel,
                            engine.live_extensions(a, y),
                        )
                        assert oracle.check(a, y) == expected, (a, y, pos, sel)


@pytest.mark.parametrize("name", ["e5", "fin4", "tree22"])
def test_a4star_asks_each_extension_at_most_once(request, name):
    model = request.getfixturevalue(name)
    for s in _short_bases(model):
        domain = set(model.extensions(s, model.full))
        asked = collections.Counter()

        def color(p):
            asked[p] += 1
            return len(p.blocks[-1].atoms) % 2

        a4star_search(model, s, model.full, color, model.selector_names())
        assert set(asked) <= domain and set(asked.values()) <= {1}, s


@pytest.mark.parametrize("name", ["e5", "fin4", "tree22"])
def test_pigeonhole_asks_each_extension_at_most_once(request, name):
    model = request.getfixturevalue(name)
    for s in _short_bases(model):
        domain = set(model.extensions(s, model.full))
        asked = collections.Counter()

        def color(p):
            asked[p] += 1
            return len(p.blocks[-1].atoms) % 2

        pigeonhole_A4(model, s, model.full, color)
        assert set(asked) <= domain and set(asked.values()) <= {1}, s
        # a lone extension is compared with nothing, so it is not asked
        assert bool(asked) == (len(domain) > 1), s


def test_a4_searches_keep_their_own_errors(e5):
    with pytest.raises(TruncationTooShallowError, match="no extensions of the segment"):
        pigeonhole_A4(e5, e5.full, e5.full, lambda p: 0)
    assert a4star_search(e5, e5.full, e5.full, lambda p: 0, e5.selector_names()) is None
    with pytest.raises(TruncationTooShallowError, match="no monochromatic"):
        pigeonhole_A4(e5, EMPTY, e5.full, lambda p: 0, Config(mu=6))
    assert a4star_search(e5, EMPTY, e5.full, lambda p: 0, e5.selector_names(), Config(mu=6)) is None


# ---------------------------------------------------------------------------
# A.4 and A.4* on every base of drawn instances and of instances with
# flipped relation bits, where [s, x] reaches past the truncation's order.

def check_a4_searches(model, x, seed):
    """a4star_search, over every selector and over drop alone, and
    pigeonhole_A4 against the reference loops, at mu 1 and 2, for every
    approximation s and a seeded two-coloring of every reduct."""
    rng = random.Random(seed)
    table = {y: rng.randrange(2) for y in model.all_reducts()}
    for s in model.approximations():
        for mu in (1, 2):
            config = Config(mu=mu)
            for family in (model.selector_names(), ("drop",)):
                expected = reference_search_inner(model, s, x, table.__getitem__, mu, family)
                got = a4star_search(model, s, x, table.__getitem__, family, config)
                assert got == expected, (s, x, family, mu)
            expected = reference_pigeonhole(model, s, x, table.__getitem__, mu)
            if not model.extensions(s, x):
                with pytest.raises(TruncationTooShallowError, match="no extensions"):
                    pigeonhole_A4(model, s, x, table.__getitem__, config)
            elif expected is None:
                with pytest.raises(TruncationTooShallowError, match="no monochromatic"):
                    pigeonhole_A4(model, s, x, table.__getitem__, config)
            else:
                assert pigeonhole_A4(model, s, x, table.__getitem__, config) == expected, (s, x, mu)


def flipped(space, flips):
    """A fresh model of one of FLIP_SPACES with the relation negated on
    the pairs in flips, given as pairs of reduct ids (-1 for EMPTY)."""
    model = FLIP_SPACES[space]()
    approx = (*model.all_reducts(), EMPTY).__getitem__
    pairs = {(approx(i), approx(j)) for i, j in flips}
    line = model._line
    model._line = lambda a, up: flip_bits(model, pairs, a, up, line(a, up))
    return model


FLIP_SPACES = {
    "e4": lambda: build_ellentuck(4),
    "e5": lambda: build_ellentuck(5),
    "fin3": lambda: build_fin(3),
    "tree22": lambda: build_tree(2, 2),
}

# Cases the drawn differentials below always run, each the one that
# kills a mutant of the A.4 search in tests/test_mutants.py: (instance,
# x as a reduct id or None for the full reduct, seed) and (space, flips,
# x, seed). Ties across lengths, where id order and key order part,
# first occur on FIN with five levels under span cap 2.
A4_DRAWN_KILLERS = {
    "ties broken by id": (lambda: build_fin(5, span_cap=2), None, 4),
    "accepted with mu - 1 extensions": (lambda: build_ellentuck(1), None, 0),
}
# The atom 0 is denied below the full reduct: EMPTY's child {0} lies
# below reducts of [EMPTY, full] but is no extension inside full.
A4_FLIPPED_KILLERS = {
    "children of extensions(s, x), no up_mask(s)": ("e4", ((0, 14),), None, 0),
}


def _reduct(model, index):
    return model.full if index is None else model.all_reducts()[index]


def _drawn_killer(name):
    build, index, seed = A4_DRAWN_KILLERS[name]
    return build(), index, seed


@st.composite
def a4_drawn_cases(draw):
    five_levels = st.builds(build_fin, st.integers(1, 5), span_cap=st.none() | st.integers(1, 3))
    instances = ellentuck_instances(5) | fin_instances() | five_levels | tree_instances()
    model = draw(instances, label="instance")
    index = draw(st.none() | st.integers(0, len(model.all_reducts()) - 1), label="x")
    return model, index, draw(st.integers(0, 2**16), label="seed")


@settings(max_examples=60, deadline=None)
@given(case=a4_drawn_cases())
@example(case=_drawn_killer("ties broken by id"))
@example(case=_drawn_killer("accepted with mu - 1 extensions"))
def test_a4_searches_match_the_references_on_drawn_instances(case):
    model, index, seed = case
    check_a4_searches(model, _reduct(model, index), seed)


@st.composite
def a4_flipped_cases(draw):
    space = draw(st.sampled_from(sorted(FLIP_SPACES)), label="space")
    count = len(FLIP_SPACES[space]().all_reducts())
    ids = st.integers(-1, count - 1)
    flips = tuple(draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=6), label="flips"))
    index = draw(st.none() | st.integers(0, count - 1), label="x")
    return space, flips, index, draw(st.integers(0, 2**16), label="seed")


@settings(max_examples=100, deadline=None)
@given(case=a4_flipped_cases())
@example(case=A4_FLIPPED_KILLERS["children of extensions(s, x), no up_mask(s)"])
def test_a4_searches_match_the_references_on_flipped_relations(case):
    space, flips, index, seed = case
    model = flipped(space, flips)
    check_a4_searches(model, _reduct(model, index), seed)


def reference_ranking(model, s, x):
    """The A.4 ranking as the search built it per call: each y of
    basic(s, x) with extensions(s, y), by most extensions then least
    key, leaving out the y with none."""
    exts = {y: model.extensions(s, y) for y in model.basic(s, x)}
    ranked = sorted((y for y in exts if exts[y]), key=lambda y: (-len(exts[y]), y.key))
    return [(y, exts[y]) for y in ranked]


def stored_ranking(model, s, x):
    """The same pairs read off a4_ranking."""
    reds = model.all_reducts()
    lo, cuts, ranked = model.a4_ranking(s, x)
    return [(reds[k], tuple(reds[lo + j] for j, cut in enumerate(cuts) if cut >> k & 1)) for k in ranked]


@pytest.mark.parametrize("name", ["e5", "fin4cap2", "tree22"])
def test_the_stored_ranking_is_the_per_reduct_ranking(request, name):
    model = request.getfixturevalue(name)
    for x in (model.full, *model.all_reducts()[::7]):
        for s in model.approximations():
            assert stored_ranking(model, s, x) == reference_ranking(model, s, x), (s, x)


def test_one_ranking_serves_every_coloring(monkeypatch):
    fills = []
    fill = SpaceModel._rank_a4

    def spy(self, s, x):
        fills.append((self, s, x))
        return fill(self, s, x)

    monkeypatch.setattr(SpaceModel, "_rank_a4", spy)
    model = build_fin(4)
    for color in (lambda p: 0, lambda p: len(p.blocks[-1].atoms) % 2):
        pigeonhole_A4(model, EMPTY, model.full, color)
    a4star_search(model, EMPTY, model.full, lambda p: p.blocks[-1].atoms[0], model.selector_names())
    assert fills == [(model, EMPTY, model.full)]
    other = build_fin(4)
    pigeonhole_A4(other, EMPTY, other.full, lambda p: 0)
    assert len(fills) == 2 and fills[1][0] is other


def test_each_model_keeps_its_own_ranking():
    # Two models of one instance, the second told that the atom 0 is not
    # below the full reduct: same tag, other ranking.
    clean, defective = build_ellentuck(5), flipped("e5", ((0, 30),))
    assert clean.instance_tag() == defective.instance_tag()
    assert clean.a4_ranking(EMPTY, clean.full) != defective.a4_ranking(EMPTY, defective.full)
    for model in (clean, defective):
        assert stored_ranking(model, EMPTY, model.full) == reference_ranking(model, EMPTY, model.full)
    # The full reduct leads with five extensions; on the defective model
    # it ties at four with {0, 1, 2, 3}, which is first by key.
    assert [(y, len(e)) for y, e in stored_ranking(clean, EMPTY, clean.full)[:1]] == [(clean.full, 5)]
    assert [(y, len(e)) for y, e in stored_ranking(defective, EMPTY, defective.full)[:2]] == [
        (ea(0, 1, 2, 3), 4), (defective.full, 4)
    ]


# ---------------------------------------------------------------------------
# The oracle on class ids against its first_mismatch loop, on uniform
# fronts, on a front with members of unequal lengths and under a budget.

ORACLE_FIXTURES = ["e5", "fin4", "fin4cap2", "tree22"]


def _unequal_front(model):
    """Members of length 1 whose block draws from the first ground level,
    and of length 2 otherwise (on Ellentuck: {0} and every {a, b} with
    0 < a); loaded through front_from_json, so the front laws are checked."""
    members = [
        m for m in model.approximations()
        if m.blocks and len(m) == (1 if m.blocks[0].source[0] == 1 else 2)
    ]
    front = Front(tuple(members), scope=model.full, instance=model.instance_tag())
    return front_from_json(model, front_to_json(front))


def _oracle_colorings(front):
    for name in sorted(GENERATORS):
        yield generated_coloring(front, name)
    for seed in range(4):
        yield generated_coloring(front, "random-kernel", seed=seed)


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_oracle_matches_the_reference_loop(request, name):
    model = request.getfixturevalue(name)
    unequal = _unequal_front(model)
    assert len({len(m) for m in unequal.members}) > 1
    for front in (*(uniform_front(model, rank) for rank in (1, 2, 3)), unequal):
        for coloring in _oracle_colorings(front):
            expected = reference_oracle_canonize(model, coloring)
            assert oracle_canonize(model, coloring) == expected, (front.arity(), coloring.name)


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_oracle_matches_the_reference_loop_on_the_rank_0_front(request, name):
    # The one member is EMPTY and the one map has no position.
    model = request.getfixturevalue(name)
    coloring = generated_coloring(uniform_front(model, 0), "constant")
    hits = oracle_canonize(model, coloring)
    assert hits == reference_oracle_canonize(model, coloring)
    assert len(hits) == 1 and hits[0][1].selectors == ()


def test_oracle_keeps_the_reference_budget_stop(fin4):
    coloring = generated_coloring(uniform_front(fin4, 2), "union")
    config = Config(max_kernels=100)
    with pytest.raises(BudgetExceededError) as expected:
        reference_oracle_canonize(fin4, coloring, config)
    with pytest.raises(BudgetExceededError) as got:
        oracle_canonize(fin4, coloring, config)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_non_drop_selectors_never_return_empty(request, name):
    # The oracle's precondition: only drop can make a position vanish.
    model = request.getfixturevalue(name)
    blocks = {b for y in model.all_reducts() for b in y.blocks}
    for selector in model.selector_names():
        if selector != "drop":
            assert all(model.apply_selector(selector, b) for b in blocks), selector


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonize_and_oracle_on_drawn_colorings(e5, fin4, fin4cap2, tree22, data):
    models = {"e5": e5, "fin4": fin4, "fin4cap2": fin4cap2, "tree22": tree22}
    model = models[data.draw(st.sampled_from(ORACLE_FIXTURES), label="instance")]
    front = uniform_front(model, data.draw(st.integers(1, 2), label="rank"))
    classes = data.draw(st.integers(1, 6), label="classes")
    colors = data.draw(
        st.lists(st.integers(0, classes - 1), min_size=len(front), max_size=len(front)),
        label="colors",
    )
    coloring = Coloring(front, tuple(colors), name="drawn")
    assert oracle_canonize(model, coloring) == reference_oracle_canonize(model, coloring)
    report = canonize(model, coloring, oracle=True)
    again = canonize(model, coloring, oracle=True)
    assert canonical_json(report.to_json()) == canonical_json(again.to_json())
    if report.verdict == "pass":
        assert verify_canonical(model, report.witness, report.phi, coloring)[0]
