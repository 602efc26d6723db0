"""Mutants that must die.

Each row is a named mutant of one engine function or hook, made at run
time with monkeypatch (no source edit), and the independent check that
kills it: a reference loop, a brute force or another presentation, never
a golden, which a re-record would hide. The check passes on the engine
as it is and fails under the mutant. Each killer builds its own models,
so no store filled before the mutation answers for the mutant.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import math

import pytest

import trspace.model
from helpers import ea, reference_canonical_json
from test_axioms import InflatedLeq
from test_cold_build import (
    BUDGET_STOPS,
    assert_cold_build_matches_reference,
    assert_the_budget_stops_inside_a_run,
    restrict_table_mask,
)
import test_containment_path
from test_kernel_scan import (
    A4_FLIPPED_KILLERS,
    _drawn_killer,
    _reduct,
    check_a4_searches,
    flipped,
    reference_verify,
)
from test_ramsey import (
    assert_stops_as_the_reference,
    assert_the_slow_path_gives_the_closed_form,
    no_budget,
    oracle_is_bad,
)
from test_relation_layer import (
    CLAUSE3_DEFECTS,
    DroppedAtom,
    LongHeadRestrict,
    ShiftedRestrict,
    _assert_engine_matches_reference,
    _assert_lines_match_hook,
    reference_a1,
    reference_a2,
    reference_a3,
)
from trspace import (
    GENERATORS,
    InnerMap,
    build_ellentuck,
    build_fin,
    build_tree,
    canonical_json,
    canonize,
    check_axioms,
    generated_coloring,
    hat,
    ramsey,
    reportio,
    uniform_front,
    verify_canonical,
)
from trspace.fronts import front_table
from trspace.mixing import _SEPARATED, _SPLIT, MixingEngine
from trspace.model import DEFAULT_CONFIG, SpaceModel, _bits
from trspace.ramsey import _CompletionTable, _admits_witness, _colex_tuples
from trspace.spaces import EllentuckModel, FinModel, TreeModel

# The package exports the canonize function under the submodule's name.
canonize_module = importlib.import_module("trspace.canonize")
# The modules that import _bits by name.
BITS_READERS = [
    importlib.import_module(f"trspace.{name}") for name in ("model", "fronts", "mixing", "canonize")
]


def _drawn_differential(name):
    model, index, seed = _drawn_killer(name)
    check_a4_searches(model, _reduct(model, index), seed)


def _flipped_differential(name):
    space, flips, index, seed = A4_FLIPPED_KILLERS[name]
    model = flipped(space, flips)
    check_a4_searches(model, _reduct(model, index), seed)


# ---------------------------------------------------------------------------
# The A.4 search: its ranking store and its admission threshold.

def ties_by_id(monkeypatch):
    """The ranking breaks ties of the extension count by id, not key."""
    rank = SpaceModel._rank_a4

    def mutant(self, s, x):
        lo, cuts, ranked = rank(self, s, x)
        count = {k: sum(cut >> k & 1 for cut in cuts) for k in ranked}
        return lo, cuts, tuple(sorted(ranked, key=lambda k: (-count[k], k)))

    monkeypatch.setattr(SpaceModel, "_rank_a4", mutant)


def children_inside_x(monkeypatch):
    """The ranking takes s's children from extensions(s, x) and its
    candidates without up_mask(s): right wherever the order is
    transitive."""

    def mutant(self, s, x):
        reds, i = self.all_reducts(), self._bit(s)
        if i is None:
            return 0, (), ()
        lo, hi = self._starts[i], self._starts[i + 1]
        inside = set(self.extensions(s, x))
        candidates = self.sub_mask(x) & self.prefix_mask(s)
        cuts = tuple(self.up_mask(c) & candidates if c in inside else 0 for c in reds[lo:hi])
        counts: dict[int, int] = {}
        for cut in cuts:
            for k in _bits(cut):
                counts[k] = counts.get(k, 0) + 1
        return lo, cuts, tuple(sorted(counts, key=lambda k: (-counts[k], reds[k].key)))

    monkeypatch.setattr(SpaceModel, "_rank_a4", mutant)


def one_extension_short(monkeypatch):
    """The search accepts a candidate with mu - 1 extensions (mu >= 2)."""
    search = trspace.model.a4star_search

    def mutant(model, s, x, color, family, config=DEFAULT_CONFIG):
        config = dataclasses.replace(config, mu=max(1, config.mu - 1))
        return search(model, s, x, color, family, config)

    monkeypatch.setattr(trspace.model, "a4star_search", mutant)


# ---------------------------------------------------------------------------
# A.2 and A.3: clause 3 of the search, and the test that skips the search.

def a2_without_clause_3(monkeypatch):
    """_check_a2 stops after clause 2, so a clause-3 failure or boundary
    miss is reported as a pass."""
    check = trspace.model._check_a2

    def mutant(model):
        report = check(model)
        if (report["witness"] or {}).get("clause") != 3:
            return report
        stats = {"max_predecessors": report["stats"]["max_predecessors"],
                 "approximations": len(model.approximations())}
        return trspace.model._report("A2", "pass", stats=stats)

    monkeypatch.setitem(trspace.model._CHECKERS, "A2", mutant)


def clause_3_defects_as_the_reference():
    """A.2 on the clause-3 defects, which flip bits of _line and so keep
    the search, gives the reference loop's report."""
    for build in CLAUSE3_DEFECTS.values():
        fast, slow = check_axioms(build(3), "A2"), reference_a2(build(3))
        assert (fast["verdict"], fast["witness"], fast["stats"]) == (
            slow["verdict"], slow["witness"], slow["stats"]
        )


def every_order_read_as_containment(monkeypatch):
    """Every model counts as ordered by containment, so A.2 and A.3 skip
    the search on defects too."""
    monkeypatch.setattr(trspace.model, "_orders_by_containment", lambda model: True)


def order_defects_as_the_reference():
    """InflatedLeq's A.2 and DroppedAtom's A.3 give the reference loops'
    verdicts and witnesses."""
    for build, axiom, reference in ((InflatedLeq, "A2", reference_a2), (DroppedAtom, "A3", reference_a3)):
        fast, slow = check_axioms(build(4), axiom), reference(build(4))
        assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"]), axiom


def a1_argued_under_any_restrict(monkeypatch):
    """A.1 passes by argument whatever restrict the model reads."""

    def mutant(model):
        return trspace.model._report("A1", "pass", stats={"reducts": len(model.all_reducts())})

    monkeypatch.setitem(trspace.model._CHECKERS, "A1", mutant)


def restrict_defects_as_the_reference():
    """ShiftedRestrict's and LongHeadRestrict's A.1 give the reference
    loop's verdict and witness."""
    for build in (ShiftedRestrict, LongHeadRestrict):
        fast, slow = check_axioms(build(4), "A1"), reference_a1(build(4))
        assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"]), build


def order_hooks_read_off_the_class(monkeypatch):
    """The argued-order test reads the hooks off the model's class, so a
    hook overridden on the instance keeps the argued path."""

    def mutant(model):
        cls = type(model)
        owner = next(c for c in cls.__mro__ if "_order_hooks" in vars(c))
        return all(getattr(cls, h) is getattr(owner, h) for h in owner._order_hooks)

    monkeypatch.setattr(trspace.model, "_orders_by_containment", mutant)


def fin_instance_masks_as_the_reference():
    """FIN(4) with _masks overridden on the instance, reporting the first
    reduct wrongly as splitting each block or not, gives the reference
    A.2 loop's verdict and witness: a clause-2 failure."""
    model = build_fin(4)

    def masks(block):
        split, inside, touch = FinModel._masks(model, block)
        return split ^ 1, inside, touch

    model._masks = masks
    fast, slow = check_axioms(model, "A2"), reference_a2(model)
    assert (fast["verdict"], fast["witness"]) == (slow["verdict"], slow["witness"])


def full_column_without_its_reduct(monkeypatch):
    """The full-column test of A.2 leaves out that the full reduct is a
    reduct."""

    def mutant(model):
        reds = model.all_reducts()
        if model._keeps(*SpaceModel._order_hooks):
            pieces = {piece for b in model.full.blocks for piece in model._pieces(b)}
            return all(piece in pieces for y in reds for piece in model._pieces(y.blocks[-1]))
        return model._column(model.full) == (2 << len(reds)) - 1

    monkeypatch.setattr(trspace.model, "_full_is_above_every_reduct", mutant)


# ---------------------------------------------------------------------------
# Canonize: the witness growth and the kernel test; the prefix runs.

def grow_keeps_its_input(monkeypatch):
    """_grow returns the witness it was given, never a larger reduct."""
    monkeypatch.setattr(canonize_module, "_grow", lambda model, coloring, x, phi: x)


def max_on_e5_rank_3_is_canonical_on_the_full_reduct():
    """On Ellentuck N=5, AU3 colored by max, the oracle's largest witness
    is the full reduct, and canonize must reach it."""
    e5 = build_ellentuck(5)
    report = canonize(e5, generated_coloring(uniform_front(e5, 3), "max"), oracle=True)
    assert report.oracle_agreement["agrees"]
    assert report.stats["witness_is_max_size"]
    assert report.witness == e5.full


def kernel_ids_merging_two_labels(monkeypatch):
    """The kernel test reads labels 0 and 1 as one."""
    kernel_ids = canonize_module.kernel_ids

    def mutant(values):
        return tuple(0 if k == 1 else k for k in kernel_ids(values))

    monkeypatch.setattr(canonize_module, "kernel_ids", mutant)


def verify_as_the_pair_scan():
    """verify_canonical gives the plain pair scan's answer and first pair
    on every reduct and map of Ellentuck N=5, AU2, under every generator."""
    e5 = build_ellentuck(5)
    front = uniform_front(e5, 2)
    maps = [InnerMap(names) for names in itertools.product(e5.selector_names(), repeat=2)]
    for name in sorted(GENERATORS):
        coloring = generated_coloring(front, name)
        for x in e5.all_reducts():
            for phi in maps:
                expected = reference_verify(e5, x, phi, coloring)
                assert verify_canonical(e5, x, phi, coloring) == expected, (name, x, phi)


def prefix_runs_one_short(monkeypatch):
    """_prefix_runs leaves out its last nonempty run of ids, the deepest
    generation of s's descendants."""

    def mutant(self, s):
        j = self._bit(s)
        if j is None:
            return 0
        self.all_reducts()
        starts, runs = self._starts, []
        lo, hi = j - 1, j
        while lo < hi:
            lo, hi = starts[lo + 1], starts[hi + 1]
            if hi > lo:
                runs.append((1 << hi) - (1 << lo))
        return (1 << j) >> 1 | sum(runs[:-1])

    monkeypatch.setattr(SpaceModel, "_prefix_runs", mutant)


def prefix_masks_as_restrict():
    """prefix_mask(s) equals the table read through restrict, on every
    approximation of Ellentuck N=4."""
    e4 = build_ellentuck(4)
    for s in e4.approximations():
        assert e4.prefix_mask(s) == restrict_table_mask(e4, s), s


# ---------------------------------------------------------------------------
# The cold build: the block hooks and FIN's block masks.

def ellentuck_skips_an_atom(monkeypatch):
    """EllentuckModel's hook leaves out the atom right after the last
    block, so no reduct holds atom 0 or two neighbouring atoms."""

    def mutant(self, s):
        floor = s.blocks[-1].atoms[0] if s.blocks else -1
        return (b for b in self.full.blocks if b.atoms[0] > floor + 1)

    monkeypatch.setattr(EllentuckModel, "_extension_blocks", mutant)


def ellentuck_counts_as_the_closed_form():
    """Ellentuck N has 2^N - 1 reducts, the nonempty subsets of its atoms."""
    for n in range(1, 8):
        assert len(build_ellentuck(n).all_reducts()) == 2 ** n - 1, n


def fin_masks_with_a_flipped_bit(monkeypatch):
    """FinModel._masks reports the first reduct wrongly as splitting
    each block, or not."""
    masks = FinModel._masks

    def mutant(self, block):
        split, inside, touch = masks(self, block)
        return split ^ 1, inside, touch

    monkeypatch.setattr(FinModel, "_masks", mutant)


def fin_lines_as_the_pairwise_order():
    """FIN(4)'s rows and columns, built from the block masks, are the
    pairwise _leq_fin."""
    _assert_lines_match_hook(build_fin(4))


def fin_runs_keyed_by_start(monkeypatch):
    """FinModel keys a parent's run by where its last block starts, not
    where it ends."""
    monkeypatch.setattr(FinModel, "_run_key", lambda self, last: None if last is None else last.source[0])


def fin4_as_the_closure():
    """FIN(4)'s walk gives the depth-first closure of EMPTY."""
    assert_cold_build_matches_reference(build_fin(4))


def tree_deepest_key_a_level_early(monkeypatch):
    """TreeModel shares one run among the blocks of the level above the
    deepest too, as if they had no extensions either."""

    def mutant(self, last):
        if last is not None and last.source[0] >= len(self.levels) - 1:
            return last.source
        return last

    monkeypatch.setattr(TreeModel, "_run_key", mutant)


def tree23_as_the_closure():
    """Tree b=2 h=3's walk gives the depth-first closure of EMPTY."""
    assert_cold_build_matches_reference(build_tree(2, 3))


def eager_tree_hook(monkeypatch):
    """TreeModel's hook builds its whole run as a tuple, so a budget
    cannot stop it inside the run."""
    hook = TreeModel._extension_blocks
    monkeypatch.setattr(TreeModel, "_extension_blocks", lambda self, s: tuple(hook(self, s)))


def tree_budget_stops_inside_a_run():
    """The budget stops tree b=3 h=4 inside the root's run of 19,683
    blocks, below 1 MB traced."""
    build, budget, bound = BUDGET_STOPS["tree34"]
    assert_the_budget_stops_inside_a_run(build(), budget, bound)


# ---------------------------------------------------------------------------
# Masks read as indices, and the mixing verdicts.

def bits_without_the_top_bit(monkeypatch):
    """_bits leaves out the highest set bit of its mask, in every module
    that reads it."""

    def mutant(mask):
        return _bits(mask & ~((1 << mask.bit_length()) >> 1))

    for module in BITS_READERS:
        monkeypatch.setattr(module, "_bits", mutant)


def masks_read_as_the_pairwise_order():
    """On Ellentuck N=4, AU2, the members and the reducts below each
    reduct, read off their masks, are those the pairwise _leq_fin puts
    below it."""
    e4 = build_ellentuck(4)
    front = uniform_front(e4, 2)
    table = front_table(e4, front)
    reds = e4.all_reducts()
    for x in reds:
        assert table.members_in(table.members_below(x)) == tuple(
            m for m in front.members if e4._leq_fin(m, x)
        ), x
        assert e4.reducts_in(e4.sub_mask(x)) == tuple(y for y in reds if e4._leq_fin(y, x)), x


def decide_never_splits(monkeypatch):
    """decide reports a pair split below the reduct as separated."""
    decide = MixingEngine.decide

    def mutant(self, x, s, t):
        verdict = decide(self, x, s, t)
        return _SEPARATED if verdict is _SPLIT else verdict

    monkeypatch.setattr(MixingEngine, "decide", mutant)


def one_slice_more(monkeypatch):
    """_row keeps mu + 1 counter slices, so a segment is admissible only
    with mu + 1 realizable extensions."""
    row = MixingEngine._row

    def mutant(self, a):
        config = self.config
        self.config = dataclasses.replace(config, mu=config.mu + 1)
        try:
            return row(self, a)
        finally:
            self.config = config

    monkeypatch.setattr(MixingEngine, "_row", mutant)


def decide_as_the_reference_loop():
    """decide gives the verdict and reason of the per-reduct reference
    loop on every triple of Ellentuck N=4, AU2, colored by random-kernel
    seed 3, at mu 1 and 2; three of its triples split at mu 1."""
    e4 = build_ellentuck(4)
    front = uniform_front(e4, 2)
    coloring = generated_coloring(front, "random-kernel", seed=3)
    segs = hat(e4, front)
    triples = [(x, s, t) for x in e4.all_reducts() for i, s in enumerate(segs) for t in segs[i:]]
    for mu in (1, 2):
        _assert_engine_matches_reference(e4, coloring, mu, triples)


# ---------------------------------------------------------------------------
# The Ramsey numbers: the closed form, the completion rows and the budget.

def arity_one_one_less(monkeypatch):
    """canonical_ramsey_number answers one less at arity one."""
    number = ramsey.canonical_ramsey_number

    def mutant(n, m, config=DEFAULT_CONFIG):
        value = number(n, m, config)
        return value - 1 if n == 1 else value

    monkeypatch.setattr(ramsey, "canonical_ramsey_number", mutant)


def no_injective_pattern(monkeypatch):
    """The completion rows leave out the injective pattern, no equal
    pairs (I holds every coordinate)."""
    rows = ramsey._completion_rows

    def mutant(n, m, start=0):
        for row in rows(n, m, start):
            yield [(mask, patterns - {0}) for mask, patterns in row]

    monkeypatch.setattr(ramsey, "_completion_rows", mutant)


def verdict_of_the_oracle(n, m, N):
    """The search's verdict on N against whole kernels: its bad kernel
    admits no witness, or the oracle finds no bad kernel either."""
    kernel = next(ramsey._bad_kernels(_CompletionTable(n, m), N, no_budget))
    if kernel is None:
        assert oracle_is_bad(n, m, N) is False
    else:
        assert _admits_witness(_colex_tuples(N, n), kernel, n, m, N) is None


def allowance_one_too_large(monkeypatch):
    """spend grants one node more than the budget has left, so the
    search stops one node late."""
    search = ramsey._bad_kernels

    def mutant(table, N, spend):
        def late(nodes=1):
            return spend(nodes) + 1

        return search(table, N, late)

    monkeypatch.setattr(ramsey, "_bad_kernels", mutant)


# ---------------------------------------------------------------------------
# The report writer: canonical_json against its defining formula.

def _write_instead(monkeypatch, when, text):
    """reportio._write writes text(obj) for each obj with when(obj) and
    is itself otherwise; its recursion reaches the mutant through the
    module name."""
    write = reportio._write

    def mutant(obj, nl, out):
        if when(obj):
            out(text(obj))
        else:
            write(obj, nl, out)

    monkeypatch.setattr(reportio, "_write", mutant)


def keys_unsorted(monkeypatch):
    """The writer takes a dict's keys in insertion order."""
    monkeypatch.setattr(reportio, "sorted", list, raising=False)


def non_ascii_raw(monkeypatch):
    """Strings keep their non-ASCII characters instead of \\u escapes."""
    monkeypatch.setattr(reportio, "_encode_str", json.encoder.encode_basestring)


def nan_written(monkeypatch):
    """NaN is written as NaN, as json.dumps does with allow_nan."""
    _write_instead(monkeypatch, lambda obj: isinstance(obj, float) and obj != obj, lambda obj: "NaN")


def floats_rounded(monkeypatch):
    """Finite floats are written rounded to six decimals."""
    _write_instead(
        monkeypatch, lambda obj: type(obj) is float and math.isfinite(obj),
        lambda obj: float.__repr__(round(obj, 6)),
    )


def empty_list_spaced(monkeypatch):
    """An empty list or tuple is written as [ ]."""
    _write_instead(monkeypatch, lambda obj: isinstance(obj, (list, tuple)) and not obj, lambda obj: "[ ]")


# Keys out of sorted order, non-ASCII text, floats that need every
# digit, empty containers and engine objects.
WRITER_PAYLOAD = {
    "zeta": [],
    "alpha": {"só": "naïve → ∞", "b": (0.1 + 0.2, 1 / 3, -2.5e-8, math.inf)},
    "ids": [3, -1, 2**70],
    "flags": [True, False, None],
    "empty": {},
    "witness": ea(1, 3),
    "nothing": ea(),
}


def writes_as_the_formula():
    """canonical_json gives the formula's text on the fixed payload."""
    assert canonical_json(WRITER_PAYLOAD) == reference_canonical_json(WRITER_PAYLOAD)


def refuses_as_the_formula():
    """NaN and -inf have no JSON form: the formula refuses them, and so
    does canonical_json."""
    for value in (math.nan, -math.inf):
        payload = {"value": [1.5, value]}
        with pytest.raises(ValueError):
            reference_canonical_json(payload)
        with pytest.raises(ValueError):
            canonical_json(payload)


# name: (mutation, killer)
MUTANTS = {
    "A.4 ties broken by id": (
        ties_by_id, lambda: _drawn_differential("ties broken by id"),
    ),
    "A.4 children of extensions(s, x), no up_mask(s)": (
        children_inside_x,
        lambda: _flipped_differential("children of extensions(s, x), no up_mask(s)"),
    ),
    "A.4 accepted with mu - 1 extensions": (
        one_extension_short, lambda: _drawn_differential("accepted with mu - 1 extensions"),
    ),
    "A.2 without clause 3": (a2_without_clause_3, clause_3_defects_as_the_reference),
    "A.2 and A.3 read every order as containment": (
        every_order_read_as_containment, order_defects_as_the_reference,
    ),
    "A.1 argued under any restrict": (a1_argued_under_any_restrict, restrict_defects_as_the_reference),
    "argued order read off the class": (order_hooks_read_off_the_class, fin_instance_masks_as_the_reference),
    "A.2 full column without the full reduct a reduct": (
        full_column_without_its_reduct,
        test_containment_path.test_a2_falls_back_to_the_search_when_the_full_reduct_is_no_reduct,
    ),
    "canonize _grow returns its input": (
        grow_keeps_its_input, max_on_e5_rank_3_is_canonical_on_the_full_reduct,
    ),
    "canonize kernel_ids merges two labels": (kernel_ids_merging_two_labels, verify_as_the_pair_scan),
    "prefix_mask runs without the last one": (prefix_runs_one_short, prefix_masks_as_restrict),
    "Ellentuck hook skips an atom": (ellentuck_skips_an_atom, ellentuck_counts_as_the_closed_form),
    "FinModel._masks flips a bit": (fin_masks_with_a_flipped_bit, fin_lines_as_the_pairwise_order),
    "Tree hook builds its run eagerly": (eager_tree_hook, tree_budget_stops_inside_a_run),
    "FinModel._run_key on where the block starts": (fin_runs_keyed_by_start, fin4_as_the_closure),
    "Tree deepest-level key a level early": (tree_deepest_key_a_level_early, tree23_as_the_closure),
    "_bits drops the top bit": (bits_without_the_top_bit, masks_read_as_the_pairwise_order),
    "MixingEngine.decide never splits": (decide_never_splits, decide_as_the_reference_loop),
    "MixingEngine._row keeps mu + 1 slices": (one_slice_more, decide_as_the_reference_loop),
    "Ramsey arity one answers one less": (
        arity_one_one_less, lambda: assert_the_slow_path_gives_the_closed_form(4),
    ),
    "Ramsey rows without the injective pattern": (
        no_injective_pattern, lambda: verdict_of_the_oracle(2, 3, 4),
    ),
    "Ramsey allowance one node too large": (
        allowance_one_too_large, lambda: assert_stops_as_the_reference(2, 4, range(1, 401)),
    ),
    "writer keys unsorted": (keys_unsorted, writes_as_the_formula),
    "writer non-ASCII text raw": (non_ascii_raw, writes_as_the_formula),
    "writer NaN written": (nan_written, refuses_as_the_formula),
    "writer floats rounded": (floats_rounded, writes_as_the_formula),
    "writer [ ] for an empty list": (empty_list_spaced, writes_as_the_formula),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    mutate, killer = MUTANTS[name]
    killer()
    mutate(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        killer()
