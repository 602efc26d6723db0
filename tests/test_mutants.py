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

import pytest

import trspace.model
from test_kernel_scan import (
    A4_FLIPPED_KILLERS,
    _drawn_killer,
    _reduct,
    check_a4_searches,
    flipped,
)
from trspace.model import DEFAULT_CONFIG, SpaceModel, _bits


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
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    mutate, killer = MUTANTS[name]
    killer()
    mutate(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        killer()
