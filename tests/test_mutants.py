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

import pytest

import trspace.model
from test_axioms import InflatedLeq
from test_cold_build import restrict_table_mask
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
    kernels_and_charges,
    no_budget,
    oracle_is_bad,
    walk_to_first_bad,
)
from test_relation_layer import CLAUSE3_DEFECTS, DroppedAtom, reference_a2, reference_a3
from trspace import (
    GENERATORS,
    InnerMap,
    build_ellentuck,
    canonize,
    check_axioms,
    generated_coloring,
    ramsey,
    uniform_front,
    verify_canonical,
)
from trspace.model import DEFAULT_CONFIG, SpaceModel, _bits
from trspace.ramsey import _CompletionTable, _admits_witness, _colex_tuples

# The package exports the canonize function under the submodule's name.
canonize_module = importlib.import_module("trspace.canonize")


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
# The Ramsey searches: the completion rows, the unary walk and the budget.

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


def unary_walk_one_node_more(monkeypatch):
    """The unary walk counts one partition more than it visits."""
    walk = ramsey._unary_walk

    def mutant(N, m):
        nodes, kernel = walk(N, m)
        return nodes + 1, kernel

    monkeypatch.setattr(ramsey, "_unary_walk", mutant)


def unary_charges_of_the_walk(m=4):
    """The arity-one search charges each N the partitions a
    largest-part-first walk visits up to its first bad one."""
    sizes = range(m, (m - 1) ** 2 + 2)
    walks = [walk_to_first_bad(N, m) for N in sizes]
    assert kernels_and_charges(ramsey._bad_kernels, 1, m, sizes, None) == [
        (kernel, nodes) for nodes, kernel in walks
    ]


def allowance_one_too_large(monkeypatch):
    """spend grants one node more than the budget has left, so the
    search stops one node late."""
    search = ramsey._bad_kernels

    def mutant(table, N, spend):
        def late(nodes=1):
            return spend(nodes) + 1

        return search(table, N, late)

    monkeypatch.setattr(ramsey, "_bad_kernels", mutant)


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
    "canonize _grow returns its input": (
        grow_keeps_its_input, max_on_e5_rank_3_is_canonical_on_the_full_reduct,
    ),
    "canonize kernel_ids merges two labels": (kernel_ids_merging_two_labels, verify_as_the_pair_scan),
    "prefix_mask runs without the last one": (prefix_runs_one_short, prefix_masks_as_restrict),
    "Ramsey rows without the injective pattern": (
        no_injective_pattern, lambda: verdict_of_the_oracle(2, 3, 4),
    ),
    "Ramsey unary walk one node more": (unary_walk_one_node_more, unary_charges_of_the_walk),
    "Ramsey allowance one node too large": (
        allowance_one_too_large, lambda: assert_stops_as_the_reference(2, 4, range(1, 401)),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    mutate, killer = MUTANTS[name]
    killer()
    mutate(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        killer()
