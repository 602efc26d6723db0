"""Structural axiom harness: passing instances, injected defects, the
one-step pigeonhole."""

from __future__ import annotations

import itertools
import random

import pytest

from trspace import (
    Config,
    EMPTY,
    EllentuckModel,
    TruncationTooShallowError,
    build_ellentuck,
    build_fin,
    check_axioms,
    derive_seed,
    pigeonhole_A4,
    uniform_front,
)
from trspace import DomainError
from helpers import ea, fa, atoms_of


AXIOMS = ("A1", "A2", "A3")


@pytest.mark.parametrize("axiom", AXIOMS)
def test_shipped_instances_pass(axiom, e5, fin3, tree22):
    for model in (e5, fin3, tree22):
        report = check_axioms(model, axiom)
        assert report["verdict"] == "pass", (model.instance_tag(), axiom, report)
        assert report["coverage"] == 1.0


def test_unknown_axiom_label_rejected(e5):
    with pytest.raises(DomainError):
        check_axioms(e5, "A9")


@pytest.mark.parametrize("label", ["a1", "a2", "a3", "A4", " A1", ""])
def test_axiom_labels_have_one_spelling(e5, label):
    with pytest.raises(DomainError):
        check_axioms(e5, label)


# ---------------------------------------------------------------------------
# Injected defects: the harness must notice broken structure maps.

class ShiftedRestrict(EllentuckModel):
    """Every segment map returns the one-shorter segment, so distinct
    reducts of equal length can never be told apart."""

    def restrict(self, x, n):
        return super().restrict(x, max(0, n - 1))


class InflatedLeq(EllentuckModel):
    """Claims every single atom sits below every pair of atoms: the rows
    of the one-atom reducts gain the bits of the two-atom ones, and the
    columns of the two-atom reducts the transpose bits."""

    def _line(self, a, up):
        line = super()._line(a, up)
        if len(a) == (1 if up else 2):
            size = 2 if up else 1
            line |= sum(1 << self._bit(y) for y in self.all_reducts() if len(y) == size)
        return line


def test_defective_restrict_fails_segment_distinctness():
    report = check_axioms(ShiftedRestrict(4), "A1")
    assert report["verdict"] == "fail"
    assert report["witness"] is not None


def test_defective_order_fails_segmentwise_equivalence():
    report = check_axioms(InflatedLeq(4), "A2")
    assert report["verdict"] == "fail"
    assert report["witness"] is not None


def test_defective_order_breaks_basic_set_refinement():
    report = check_axioms(InflatedLeq(4), "A3")
    assert report["verdict"] == "fail"


# ---------------------------------------------------------------------------
# One-step pigeonhole.

def test_pigeonhole_parity_picks_even_atoms():
    e8 = build_ellentuck(8)
    y = pigeonhole_A4(e8, EMPTY, e8.full, lambda p: p.blocks[-1].atoms[0] % 2)
    assert atoms_of(y) == ((0,), (2,), (4,), (6,))


def test_pigeonhole_fin_size_parity(fin4):
    coloring = lambda p: len(p.blocks[-1].atoms) % 2
    y = pigeonhole_A4(fin4, EMPTY, fin4.full, coloring)
    assert atoms_of(y) == ((0, 1), (2, 3))


def test_pigeonhole_result_is_monochromatic_on_random_colorings(fin3, tree22):
    for model, tag in ((fin3, "fin"), (tree22, "tree")):
        bases = [EMPTY] + list(uniform_front(model, 1).members)
        for s in bases:
            exts = model.extensions(s, model.full)
            if not exts:
                continue
            for i in range(25):
                rng = random.Random(derive_seed("axiom-battery", tag, s.key, i))
                cmap = {p: rng.randrange(2) for p in exts}
                y = pigeonhole_A4(model, s, model.full, lambda p: cmap[p])
                got = {cmap[p] for p in model.extensions(s, y)}
                assert len(got) == 1


def test_pigeonhole_prefers_most_extensions():
    e8 = build_ellentuck(8)
    # constant coloring: the whole reduct is monochromatic, so the
    # witness must keep all eight extensions
    y = pigeonhole_A4(e8, EMPTY, e8.full, lambda p: 0)
    assert len(e8.extensions(EMPTY, y)) == 8


def test_pigeonhole_without_extensions_is_too_shallow(e5):
    with pytest.raises(TruncationTooShallowError):
        pigeonhole_A4(e5, e5.full, e5.full, lambda p: 0)


def test_pigeonhole_needs_wide_enough_witness(e5):
    # injective coloring: only single-extension reducts are
    # monochromatic, so demanding two extensions must fail
    coloring = lambda p: p.blocks[-1].atoms[0]
    y = pigeonhole_A4(e5, EMPTY, e5.full, coloring)
    assert len(e5.extensions(EMPTY, y)) == 1
    with pytest.raises(TruncationTooShallowError):
        pigeonhole_A4(e5, EMPTY, e5.full, coloring, Config(mu=2))


def test_pigeonhole_exhaustive_two_colorings_small_instance(e5):
    bases = [EMPTY] + list(uniform_front(e5, 1).members)
    for s in bases:
        exts = e5.extensions(s, e5.full)
        if not exts:
            continue
        for bits in itertools.product((0, 1), repeat=len(exts)):
            cmap = dict(zip(exts, bits))
            y = pigeonhole_A4(e5, s, e5.full, lambda p: cmap[p])
            assert len({cmap[p] for p in e5.extensions(s, y)}) == 1
