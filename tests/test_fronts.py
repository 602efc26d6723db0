"""Fronts, hats, subfronts, colorings and their serialization."""

from __future__ import annotations

import itertools

import pytest

from trspace import (
    Coloring,
    DomainError,
    EMPTY,
    GENERATORS,
    Front,
    InstanceMismatchError,
    MixingEngine,
    ParameterError,
    build_ellentuck,
    build_fin,
    canonize,
    color_front,
    coloring_from_json,
    coloring_to_json,
    front_from_json,
    front_table,
    front_to_json,
    generated_coloring,
    hat,
    is_front,
    restrict_front,
    subfront,
    uniform_front,
)
from helpers import ea, fa, atoms_of


def test_uniform_front_counts(e5, e6, fin4, tree23):
    assert len(uniform_front(e5, 2).members) == 10
    assert len(uniform_front(e6, 2).members) == 15
    assert len(uniform_front(fin4, 1).members) == 15
    assert len(uniform_front(tree23, 2).members) == 35


def test_uniform_front_members_are_segments_of_reducts(e5):
    front = uniform_front(e5, 2)
    for m in front.members:
        assert len(m) == 2
        assert e5.leq_fin(m, front.scope)


def test_front_refuses_repeated_members():
    # A repeated member would get a colour of its own and a bit of its
    # own in the mixing masks, for a member that is not there.
    front = uniform_front(build_ellentuck(4), 1)
    with pytest.raises(ParameterError, match="front members must be distinct"):
        Front(front.members + front.members[:1], scope=front.scope, instance=front.instance)
    with pytest.raises(ParameterError, match="front members must be distinct"):
        Front(front.members[:1] * 2, scope=front.scope, instance="elsewhere")


def test_uniform_front_guards(e5):
    with pytest.raises(ParameterError):
        uniform_front(e5, -1)
    with pytest.raises(ParameterError):
        uniform_front(e5, 7)  # deeper than the truncation


def test_fin_rank2_front_matches_direct_enumeration(fin4):
    got = {atoms_of(m) for m in uniform_front(fin4, 2).members}
    want = set()
    for r in (1, 2, 3):
        for first in itertools.combinations(range(4), r):
            for r2 in (1, 2, 3):
                for second in itertools.combinations(range(first[-1] + 1, 4), r2):
                    want.add((first, second))
    assert got == want


def test_is_front_verdicts(e4_front_family=None):
    e4 = build_ellentuck(4)
    front = uniform_front(e4, 2)
    ok = is_front(e4, front.members)
    assert ok["verdict"] == "pass"

    # antichain violation: a member plus its strict prefix
    bad = is_front(e4, list(front.members) + [ea(0)])
    assert bad["verdict"] == "fail"
    assert bad["witness"]["reason"] == "not an antichain"

    # family with a hole: reducts through {0,1} dodge it
    holed = [m for m in front.members if m != ea(0, 1)]
    dodged = is_front(e4, holed)
    assert dodged["verdict"] == "fail"
    assert dodged["witness"]["y"] == ea(0, 1)


def test_is_front_boundary_dead_ends():
    e2 = build_ellentuck(2)
    front = uniform_front(e2, 2)  # single member {0,1}
    report = is_front(e2, front.members)
    assert report["verdict"] == "pass"
    assert "boundary_dead_ends" in report["flags"]


def test_uniform_fronts_of_every_rank_are_fronts(e5, e6, fin4, tree22, tree23):
    # A reduct can miss every member and still grow, but only to dead
    # ends shorter than the rank: boundary flags, not failures.
    for model in (build_ellentuck(4), e5, e6, fin4, build_fin(5), tree22, tree23):
        for rank in range(2, len(model.full) + 1):
            report = is_front(model, uniform_front(model, rank).members)
            assert report["verdict"] == "pass", (model.kind, rank)
            assert report["flags"] == ("boundary_dead_ends",), (model.kind, rank)


def test_is_front_fails_where_a_reduct_can_grow_past_the_family():
    e4 = build_ellentuck(4)
    holed = [m for m in uniform_front(e4, 3).members if m != ea(1, 2, 3)]
    report = is_front(e4, holed)
    # ({1}) reaches ({1},{2},{3}), as long as any member, and meets none.
    assert report["verdict"] == "fail"
    assert report["witness"] == {"reason": "reduct dodges the family", "y": ea(1)}
    empty = is_front(e4, [])
    assert empty["verdict"] == "fail"
    assert empty["witness"]["reason"] == "reduct dodges the family"


def test_a_capped_schreier_barrier_is_a_front_with_dead_ends():
    # A member has length min(first atom + 1, 3): 1 + 5 + 10 members on
    # e7. The reduct ({5}) grows only to ({5},{6}), a dead end.
    e7 = build_ellentuck(7)
    members = set()
    for y in e7.all_reducts():
        k = min(y.blocks[0].atoms[0] + 1, 3)
        if len(y) >= k:
            members.add(e7.restrict(y, k))
    assert sorted(map(len, members)) == [1] + [2] * 5 + [3] * 10
    report = is_front(e7, members)
    assert report["verdict"] == "pass"
    assert report["flags"] == ("boundary_dead_ends",)


def test_hat_contains_every_segment(e5):
    # four atoms: 6 members, 3 startable singletons, the empty segment
    e4 = build_ellentuck(4)
    front = uniform_front(e4, 2)
    segs = hat(e4, front)
    assert len(segs) == 10
    assert ea(3) not in segs  # the top atom cannot start a pair
    assert EMPTY in segs
    assert all(any(m.blocks[:len(s)] == s.blocks for m in front.members) for s in segs)


def test_members_extending_and_subfront(e5):
    front = uniform_front(e5, 2)
    sub = subfront(e5, front, ea(2))
    assert {atoms_of(m) for m in sub.members} == {((2,), (3,)), ((2,), (4,))}
    assert sub.anchor == ea(2)
    with pytest.raises(DomainError):
        subfront(e5, front, ea(0, 1))  # already a member
    with pytest.raises(DomainError):
        subfront(e5, front, ea(0, 1, 2))  # not a segment of any member


def test_restrict_front(e5):
    front = uniform_front(e5, 2)
    small = restrict_front(e5, front, ea(0, 2, 4))
    assert len(small.members) == 3
    assert small.scope == ea(0, 2, 4)
    assert small.flags == ()
    with pytest.raises(DomainError):
        restrict_front(e5, front, ea(0, 7))
    with pytest.raises(DomainError):
        restrict_front(e5, front, EMPTY)


def test_restrict_front_flags_loss_of_covering(e5):
    front = uniform_front(e5, 2)
    tiny = restrict_front(e5, front, ea(3))
    assert tiny.members == ()
    assert "covering_undecided" in tiny.flags
    # A front built in Python is not checked for covering; restricting
    # it keeps its members and flags the hole at ({0},{1}).
    holed = Front(
        tuple(m for m in front.members if m != ea(0, 1)), scope=e5.full, instance=front.instance
    )
    kept = restrict_front(e5, holed, e5.full)
    assert len(kept.members) == 9
    assert kept.flags == ("covering_undecided",)


def test_front_instance_mismatch(e5, e6):
    front = uniform_front(e6, 2)
    with pytest.raises(InstanceMismatchError):
        hat(e5, front)


def test_front_instance_mismatch_after_its_table_exists(e5, e6):
    # The front's table is built on its own model first; every use on
    # another instance still refuses it, and builds no table there.
    front = uniform_front(e6, 2)
    coloring = generated_coloring(front, "min")
    MixingEngine(e6, coloring)
    assert front in e6.front_tables()
    for use in (hat, front_table):
        with pytest.raises(InstanceMismatchError):
            use(e5, front)
    with pytest.raises(InstanceMismatchError):
        MixingEngine(e5, coloring)
    with pytest.raises(InstanceMismatchError):
        canonize(e5, coloring)
    assert front not in e5.front_tables()


# ---------------------------------------------------------------------------
# Colorings.

def test_coloring_normalizes_to_first_occurrence(e5):
    front = uniform_front(e5, 1)
    c = Coloring(front, (7, 7, 3, 9, 3))
    assert c.colors == (0, 0, 1, 2, 1)
    assert c.classes() == 3


def test_coloring_rejects_wrong_length_and_foreign_members(e5):
    front = uniform_front(e5, 1)
    with pytest.raises(ParameterError):
        Coloring(front, (0, 1))
    c = Coloring(front, (0, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        c(ea(0, 1))


def test_generator_values(e6):
    front = uniform_front(e6, 2)
    cmin = color_front(front, GENERATORS["min"], name="min")
    cmax = color_front(front, GENERATORS["max"], name="max")
    for m in front.members:
        lo, hi = m.blocks[0].atoms[0], m.blocks[1].atoms[0]
        assert cmin(m) == cmin.colors[front.members.index(m)]
        # min-generated colorings identify members with equal first atom
        for m2 in front.members:
            if m2.blocks[0].atoms[0] == lo:
                assert cmin(m) == cmin(m2)
            if m2.blocks[1].atoms[0] == hi:
                assert cmax(m) == cmax(m2)


def test_parity_generator_tracks_least_atom(e6):
    front = uniform_front(e6, 2)
    c = color_front(front, GENERATORS["parity"], name="parity")
    for m in front.members:
        want = m.blocks[0].atoms[0] % 2
        # colors are relabeled, so compare pairwise instead of by value
        for m2 in front.members:
            if m2.blocks[0].atoms[0] % 2 == want:
                assert c(m) == c(m2)


def test_random_kernel_is_seed_deterministic(e6):
    front = uniform_front(e6, 2)
    a = generated_coloring(front, "random-kernel", seed=11)
    b = generated_coloring(front, "random-kernel", seed=11)
    c = generated_coloring(front, "random-kernel", seed=12)
    assert a.colors == b.colors
    assert any(generated_coloring(front, "random-kernel", seed=s).colors != a.colors
               for s in range(13, 20))
    assert c.name == "random-kernel(12)"


def test_unknown_generator_rejected(e6):
    front = uniform_front(e6, 2)
    with pytest.raises(ParameterError):
        generated_coloring(front, "no-such-generator")


def test_relabeled_colors_share_the_kernel(e5):
    front = uniform_front(e5, 1)
    base = Coloring(front, (0, 1, 0, 2, 1))
    relabeled = Coloring(front, tuple({0: 5, 1: 9, 2: 0}[c] for c in base.colors))
    assert base.colors == relabeled.colors  # normalization makes them literal equals


# ---------------------------------------------------------------------------
# Serialization round trips.

def test_front_json_roundtrip(e6):
    front = uniform_front(e6, 2)
    clone = front_from_json(e6, front_to_json(front))
    assert clone.members == front.members
    assert clone.scope == front.scope
    assert clone.instance == front.instance


def test_anchored_subfronts_round_trip_and_cover(e5, fin4, tree22):
    # Every subfront of a rank-2 front is anchored at its interior
    # segment; the front laws hold on the reducts through that anchor.
    count = 0
    for model in (e5, fin4, tree22):
        front = uniform_front(model, 2)
        for t in hat(model, front):
            if t == EMPTY or t in front.positions:
                continue
            sub = subfront(model, front, t)
            count += 1
            assert is_front(model, sub.members, scope=sub.scope, anchor=t)["verdict"] == "pass"
            assert front_from_json(model, front_to_json(sub)) == sub
            for y in model.basic(t, sub.scope):
                small = restrict_front(model, sub, y)
                assert small.anchor == t
                if small.members:
                    assert small.flags == (), (t, y)
    assert count == 14


def test_coloring_json_roundtrip(e6):
    front = uniform_front(e6, 2)
    c = generated_coloring(front, "random-kernel", seed=3)
    clone = coloring_from_json(e6, coloring_to_json(c))
    assert clone.colors == c.colors
    assert clone.name == c.name
    assert clone.front.members == front.members
