"""Core data model: blocks, approximations, the quasi-order, depth,
extensions, fusion plumbing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    Approx,
    Block,
    Config,
    DEFAULT_CONFIG,
    EMPTY,
    DomainError,
    FusionExhaustedError,
    ParameterError,
    BudgetExceededError,
    PropertyOracle,
    a4star_search,
    approx_sort_key,
    build_ellentuck,
    build_fin,
    build_tree,
    canonize,
    check_axioms,
    derive_seed,
    fuse,
    generated_coloring,
    mixing_table,
    pigeonhole_A4,
    uniform_front,
    witness_sort_key,
)
from trspace.model import _bits
from helpers import ea, fa, atoms_of


# ---------------------------------------------------------------------------
# Block and Approx structure.

def test_block_requires_increasing_atoms():
    with pytest.raises(ParameterError):
        Block((1, 3), (2, 1))
    with pytest.raises(ParameterError):
        Block((1, 2), ())


def test_block_ordering_is_source_then_atoms():
    a = Block((1, 2), (0,))
    b = Block((2, 3), (1,))
    c = Block((1, 4), (0, 2))
    assert a < b
    assert a < c  # same start, longer source interval
    assert sorted([b, c, a]) == [a, c, b]


def test_approx_prefix_and_key():
    t = ea(2, 5, 7, 11)
    assert len(t) == 4
    assert t.key == tuple(b.key for b in t.blocks) or t.key  # key exists and is hashable
    assert hash(t.key) == hash(t.key)


def test_sort_keys_order_by_length_then_key():
    items = [ea(1), ea(0, 1), ea(0), EMPTY]
    fwd = sorted(items, key=approx_sort_key)
    assert fwd == [EMPTY, ea(0), ea(1), ea(0, 1)]
    back = sorted(items, key=witness_sort_key)
    assert back[0] == ea(0, 1)


# ---------------------------------------------------------------------------
# Frozen operation examples.

def test_restrict_takes_initial_segment():
    e12 = build_ellentuck(12)
    x = ea(2, 5, 7, 11)
    assert e12.restrict(x, 2) == ea(2, 5)
    assert e12.restrict(x, 0) == EMPTY
    assert e12.restrict(x, 4) == x


def test_restrict_out_of_range_rejected():
    e5 = build_ellentuck(5)
    from trspace import DomainError

    with pytest.raises(DomainError):
        e5.restrict(ea(0, 1), 3)
    with pytest.raises(DomainError):
        e5.restrict(ea(0, 1), -1)


def test_depth_examples():
    e10 = build_ellentuck(10)
    x = ea(1, 3, 5, 7, 9)
    assert e10.depth(x, ea(3, 5)) == 3
    assert e10.depth(x, EMPTY) == 0
    assert e10.depth(x, ea(0)) == math.inf  # not compatible with x


def test_extensions_example():
    e5 = build_ellentuck(5)
    exts = e5.extensions(ea(1), ea(1, 2, 4))
    assert [atoms_of(p) for p in exts] == [((1,), (2,)), ((1,), (4,))]


def test_fin_extensions_example(fin3):
    exts = fin3.extensions(fa((0,)), fin3.full)
    assert sorted(atoms_of(p)[-1] for p in exts) == [(1,), (1, 2), (2,)]


def test_leq_fin_examples(fin4):
    assert fin4.leq_fin(fa((0, 1)), fa((0,), (1,)))
    assert fin4.leq_fin(fa((0, 2)), fa((0,), (1,), (2,)))
    assert not fin4.leq_fin(fa((1,)), fa((0, 1),))
    e5 = build_ellentuck(5)
    assert e5.leq_fin(ea(0, 2), ea(0, 1, 2))
    assert not e5.leq_fin(ea(0, 3), ea(0, 1, 2))


def test_fin_order_holds_only_for_blocks_of_the_instance(fin4, fin4cap2):
    """A block wider than the span cap, or whose source is not its
    ground levels, sits below nothing and has nothing below it."""
    wide = fa((0, 1, 2))
    mislabeled = Approx((Block((2, 3), (0,)),))
    assert fin4.leq_fin(wide, fin4.full) and fin4.leq_fin(EMPTY, wide)
    for model, s in ((fin4cap2, wide), (fin4, mislabeled), (fin4cap2, mislabeled)):
        assert not model.leq_fin(s, model.full)
        assert not model.leq_fin(EMPTY, s)


def _foreign_cases():
    e4, fin4, tree22 = build_ellentuck(4), build_fin(4), build_tree(2, 2)
    # the root, then only one of its two children
    lopsided = Approx((Block((1, 2), (0,)), Block((2, 3), (1,))))
    return {
        "ellentuck-reversed": (e4, ea(3, 1), e4.full),
        "ellentuck-repeated": (e4, ea(1, 1), e4.full),
        "ellentuck-stray-atom": (e4, ea(5), e4.full),
        "ellentuck-stray-atom-itself": (e4, ea(5), ea(5)),
        "fin-misordered": (fin4, fa((2,), (0,)), fin4.full),
        "fin-interleaved": (fin4, fa((0, 2), (1,)), fin4.full),
        "tree-not-strong": (tree22, lopsided, tree22.full),
    }


FOREIGN = _foreign_cases()


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_foreign_approximations_sit_below_nothing(name):
    """Only EMPTY and the reducts are approximations of the instance;
    anything else is below nothing and has nothing below it."""
    model, s, t = FOREIGN[name]
    assert not model.leq_fin(s, t)
    assert not model.leq_fin(EMPTY, s)


def test_nothing_is_below_a_non_approximation(e5):
    # A FIN block union of two levels is no approximation of Ellentuck
    # (a cap-1 FIN reduct would be, as it interns to an Ellentuck one).
    union = Approx((Block((1, 3), (0, 1)),))
    assert e5.below((EMPTY, *e5.all_reducts()), union) == ()


@pytest.mark.parametrize("name", ["e5", "fin4", "fin4cap2", "tree22", "tree23"])
def test_approximations_are_the_reducts_and_empty(request, name):
    model = request.getfixturevalue(name)
    assert set(model.approximations()) == set(model.all_reducts()) | {EMPTY}


def test_prefixes_sit_below_their_whole(e5):
    for x in e5.all_reducts():
        for k in range(len(x) + 1):
            assert e5.leq_fin(e5.restrict(x, k), x)


# ---------------------------------------------------------------------------
# Quasi-order laws (property-based over the whole truncation).

@pytest.fixture(scope="module")
def e5_approxes(e5):
    return e5.approximations()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_leq_fin_reflexive_and_transitive(e5, e5_approxes, data):
    pick = st.sampled_from(e5_approxes)
    s, t, u = data.draw(pick), data.draw(pick), data.draw(pick)
    assert e5.leq_fin(s, s)
    if e5.leq_fin(s, t) and e5.leq_fin(t, u):
        assert e5.leq_fin(s, u)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_depth_zero_iff_empty(e5, e5_approxes, data):
    s = data.draw(st.sampled_from(e5_approxes))
    d = e5.depth(e5.full, s)
    assert (d == 0) == (s == EMPTY)
    if d != math.inf:
        assert e5.leq_fin(s, e5.restrict(e5.full, d))
        if d > 0:
            assert not e5.leq_fin(s, e5.restrict(e5.full, d - 1))


def test_extensions_shrink_with_the_reduct(e5):
    # fewer reducts below means no new extensions can appear
    s = ea(0)
    big = e5.full
    small = ea(0, 2, 4)
    exts_small = set(e5.extensions(s, small))
    exts_big = set(e5.extensions(s, big))
    assert exts_small <= exts_big


def test_predecessor_counts_are_finite_and_reported(e5):
    from trspace import check_axioms

    report = check_axioms(e5, "A2")
    assert report["verdict"] == "pass"
    assert report["stats"]["max_predecessors"] >= 1


# ---------------------------------------------------------------------------
# Config and seeds.

def test_config_validation():
    with pytest.raises(ParameterError):
        Config(mu=0)
    with pytest.raises(ParameterError):
        Config(max_reducts=0)
    with pytest.raises(ParameterError, match="depth budget must be positive when set"):
        Config(depth_budget=0)
    with pytest.raises(TypeError):  # canonize's retry count is a constant, not a field
        Config(retries=3)
    assert DEFAULT_CONFIG.mu == 1


@pytest.mark.parametrize("field, value", [
    ("mu", 1.5), ("mu", "2"), ("mu", True), ("depth_budget", 2.0), ("depth_budget", False),
    ("max_reducts", 10.0), ("max_kernels", 2.5), ("seed", None),
])
def test_config_refuses_non_integer_fields(field, value):
    # Booleans are refused too, as is_int_list refuses them.
    with pytest.raises(ParameterError, match=f"^{field} must be an integer$"):
        Config(**{field: value})


# Ellentuck N=4 has 15 reducts; every entry point taking a Config holds
# the instance to its max_reducts.
BUDGET_ENTRY_POINTS = {
    "check_axioms": lambda model, config: check_axioms(model, "A1", config),
    "fuse": lambda model, config: fuse(
        model, PropertyOracle(check=lambda s, y: True), config=config
    ),
    "mixing_table": lambda model, config: mixing_table(
        model, _min_coloring(model), config=config
    ),
    "canonize": lambda model, config: canonize(model, _min_coloring(model), config),
    "pigeonhole_A4": lambda model, config: pigeonhole_A4(
        model, EMPTY, model.full, lambda p: 0, config
    ),
    "a4star_search": lambda model, config: a4star_search(
        model, EMPTY, model.full, lambda p: 0, model.selector_names(), config
    ),
}


def _min_coloring(model):
    return generated_coloring(uniform_front(model, 1), "min")


@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_library_calls_honour_max_reducts(entry):
    call = BUDGET_ENTRY_POINTS[entry]
    model = build_ellentuck(4)
    with pytest.raises(BudgetExceededError, match="max_reducts budget of 14"):
        call(model, Config(max_reducts=14))
    call(model, Config(max_reducts=15))


def test_reduct_budget_applies_before_and_after_enumeration():
    model = build_ellentuck(4)
    with pytest.raises(BudgetExceededError, match="ellentuck instance passed the max_reducts"):
        check_axioms(model, "A1", Config(max_reducts=3))
    # the stopped enumeration stored nothing; a first full one succeeds
    assert check_axioms(model, "A1")["stats"]["reducts"] == 15
    assert len(model.all_reducts()) == 15
    # the reducts are stored now, and a smaller budget still refuses them
    with pytest.raises(BudgetExceededError, match="max_reducts budget of 3"):
        model.all_reducts(3)
    with pytest.raises(BudgetExceededError, match="max_reducts budget of 3"):
        check_axioms(model, "A2", Config(max_reducts=3))
    assert len(model.all_reducts(15)) == 15


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed("alpha", 3, None)
    assert a == derive_seed("alpha", 3, None)
    assert a != derive_seed("alpha", 4, None)
    assert a != derive_seed("beta", 3, None)


# ---------------------------------------------------------------------------
# Fusion plumbing on a property with a known fixed point.

def test_fuse_reaches_a_reduct_satisfying_the_property(e6):
    # property: y keeps at most four atoms available above each segment
    oracle = PropertyOracle(check=lambda s, y: len(e6.extensions(s, y)) <= 4)
    z = fuse(e6, oracle)
    assert len(z) <= 4 or all(
        len(e6.extensions(s, z)) <= 4 for s in e6.approximations() if e6.leq_fin(s, z)
    )


def test_fuse_stops_after_the_depth_budget(e6):
    # Only segments of length 3 see the property, so the one shrink
    # (dropping atom 5) happens at stage 2, past a budget of 1.
    oracle = PropertyOracle(check=lambda s, y: len(s) < 3 or 5 not in y.atom_set())
    assert fuse(e6, oracle) == ea(0, 1, 2, 3, 4)
    assert fuse(e6, oracle, config=Config(depth_budget=1)) == e6.full


def test_fuse_respects_start(e6):
    oracle = PropertyOracle(check=lambda s, y: True)
    start = ea(0, 2, 4)
    z = fuse(e6, oracle, start=start)
    assert z == start


def test_fuse_reports_the_stage_it_cannot_settle(e5):
    # No reduct satisfies the property, so the first agenda entry of
    # stage 0 has no replacement and the full reduct is never shrunk.
    with pytest.raises(FusionExhaustedError) as info:
        fuse(e5, PropertyOracle(check=lambda s, y: False))
    assert info.value.stage == 0
    assert info.value.partial == e5.full


def test_fuse_gives_up_when_the_shrink_cap_runs_out(monkeypatch):
    # basic offers A and B whatever it is asked. A settles the EMPTY entry
    # only and B the ({0},) entry only, so each shrink unsettles the other
    # entry and fusion alternates A -> B -> A ... until the cap runs out.
    e4 = build_ellentuck(4)
    A, B = ea(0, 1, 2), ea(0, 1, 3)
    asked = []

    def basic(frozen, x):
        asked.append(x)
        return (A, B)

    monkeypatch.setattr(e4, "basic", basic)
    settled_by = {EMPTY: A, ea(0): B}
    oracle = PropertyOracle(check=lambda s, y: y is settled_by[s], domain=settled_by.__contains__)
    cap = e4.sub_mask(A).bit_count() + 1
    with pytest.raises(FusionExhaustedError) as info:
        fuse(e4, oracle, start=A)
    assert info.value.stage == 0
    assert asked == [A, B] * (cap // 2) + [A] * (cap % 2)
    assert info.value.partial is (B if cap % 2 else A)


def test_fuse_rejects_a_start_that_is_no_reduct(e5):
    oracle = PropertyOracle(check=lambda s, y: True)
    for start in (ea(0, 7), fa((0, 1))):
        with pytest.raises(DomainError):
            fuse(e5, oracle, start=start)


def test_fuse_rejects_the_empty_start(e5):
    # EMPTY lies below every reduct but is none itself.
    with pytest.raises(DomainError):
        fuse(e5, PropertyOracle(check=lambda s, y: True), start=EMPTY)


# ---------------------------------------------------------------------------
# The bit decoder.

def _plain_bit_scan(mask: int) -> list[int]:
    # The binary digits, lowest first.
    return [i for i, digit in enumerate(reversed(f"{mask:b}")) if digit == "1"]


EDGE_BITS = (0, 63, 64, 65, 20_605)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=20_605).map(lambda i: 1 << i),
    st.sets(st.sampled_from(EDGE_BITS), min_size=1).map(lambda bits: sum(1 << i for i in bits)),
    st.integers(min_value=1, max_value=(1 << 300) - 1),
))
def test_bits_matches_a_plain_bit_scan(mask):
    assert list(_bits(mask)) == _plain_bit_scan(mask)


def test_bits_on_the_edge_bits_together():
    mask = sum(1 << i for i in EDGE_BITS)
    assert list(_bits(mask)) == list(EDGE_BITS) == _plain_bit_scan(mask)
    assert list(_bits(0)) == []
