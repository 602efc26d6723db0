"""One space, two presentations: Ellentuck N is FIN(N, span cap 1).

With span cap 1 every FIN block draws on one level, and level i holds
atom i in both spaces, so the two models have the same reducts, made of
the same interned blocks. They share no space hook (FIN brings its own
pieces, reduct lines, extension blocks and selectors), so a defect in
either hook set shows up as a disagreement between the two.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    GENERATORS,
    Coloring,
    build_ellentuck,
    build_fin,
    canonize,
    check_axioms,
    eval_inner,
    generated_coloring,
    lemma_suite,
    mixing_table,
    oracle_canonize,
    property_p_check,
    transitivity_check,
    uniform_front,
    weak_mixing_detect,
)
from trspace.mixing import MIXES
from trspace.model import kernel_ids
from test_containment_path import searching

# "identity" names the same generator as "injective".
NAMED = tuple(name for name in GENERATORS if name != "identity")


def _pair(n: int):
    return build_ellentuck(n), build_fin(n, span_cap=1)


# Ellentuck's A.1-A.3 take the argued paths and FIN's, read through
# searching(), the search, so from N = 7 on, where a pairwise check is
# slow, each checks the other.
@pytest.mark.parametrize("n", range(1, 13))
def test_axiom_reports_agree(n):
    ell, fin = _pair(n)
    fin = searching(fin)
    assert ell.all_reducts() == fin.all_reducts()
    for axiom in ("A1", "A2", "A3"):
        mine, theirs = check_axioms(ell, axiom), check_axioms(fin, axiom)
        assert mine.pop("instance") != theirs.pop("instance")
        assert mine == theirs, axiom


def _colorings(front):
    for name in NAMED:
        yield generated_coloring(front, name)
    for seed in range(4):
        yield generated_coloring(front, "random-kernel", seed=seed)


def _weak_mixing_scan(model, coloring, table):
    """weak_mixing_detect on each mixed pair of the table at unequal
    depths, shallower segment first, as the weak-mixing command scans."""
    found = []
    for (i, j), verdict in sorted(table.verdicts.items()):
        if verdict.kind != MIXES or table.depths[i] == table.depths[j]:
            continue
        s, t = table.rows[i], table.rows[j]
        if table.depths[j] < table.depths[i]:
            s, t = t, s
        found.append(weak_mixing_detect(model, table.reduct, s, t, coloring, engine=table.engine))
    return found


def _oracle_kernels(model, coloring, hits):
    """Per oracle witness, the kernels its maps induce on the members
    below it: the hits up to the names of the selectors."""
    return {
        (x, kernel_ids(eval_inner(model, phi, m) for m in model.below(coloring.front.members, x)))
        for x, phi in hits
    }


def _assert_canonizations_agree(ell, fin, ell_coloring, fin_coloring, label, oracle):
    """canonize gives both sides one witness and one kernel of phi on the
    members below it, and the lemma suites and mixing tables agree.
    Returns the two canonize reports and the two tables."""
    mine, theirs = canonize(ell, ell_coloring, oracle=oracle), canonize(fin, fin_coloring, oracle=oracle)
    assert mine.witness == theirs.witness, label
    # The selector families differ in name (keep against identity,
    # min, max and minmax on one-level blocks); the kernels agree.
    members = ell.below(ell_coloring.front.members, mine.witness)
    assert kernel_ids(eval_inner(ell, mine.phi, m) for m in members) == kernel_ids(
        eval_inner(fin, theirs.phi, m) for m in members
    ), label
    # The lemma suite runs on each side's own result; its report names
    # segments and reducts, not selectors.
    assert lemma_suite(ell, ell_coloring, mine.witness, mine.phi) == lemma_suite(
        fin, fin_coloring, theirs.witness, theirs.phi
    ), label
    ell_table, fin_table = mixing_table(ell, ell_coloring), mixing_table(fin, fin_coloring)
    assert ell_table.reduct == fin_table.reduct, label
    assert ell_table.rows == fin_table.rows, label
    assert {ij: v.kind for ij, v in ell_table.verdicts.items()} == {
        ij: v.kind for ij, v in fin_table.verdicts.items()
    }, label
    return mine, theirs, ell_table, fin_table


@pytest.mark.parametrize("n", range(4, 7))
@pytest.mark.parametrize("rank", (1, 2, 3))
def test_canonization_agrees(n, rank):
    ell, fin = _pair(n)
    ell_front, fin_front = uniform_front(ell, rank), uniform_front(fin, rank)
    assert ell_front.members == fin_front.members
    for ell_coloring in _colorings(ell_front):
        # Generators read the instance (random kernels) or the selector
        # family, so the color vector itself moves across.
        fin_coloring = Coloring(fin_front, ell_coloring.colors, name=ell_coloring.name)
        label = ell_coloring.name
        mine, theirs, ell_table, fin_table = _assert_canonizations_agree(
            ell, fin, ell_coloring, fin_coloring, label, oracle=True
        )
        assert mine.stats["witness_is_max_size"] == theirs.stats["witness_is_max_size"], label
        # Property P's report, too, names segments and reducts.
        assert property_p_check(ell, ell_coloring) == property_p_check(fin, fin_coloring), label
        assert transitivity_check(ell_table) == transitivity_check(fin_table), label
        assert _weak_mixing_scan(ell, ell_coloring, ell_table) == _weak_mixing_scan(
            fin, fin_coloring, fin_table
        ), label
        ell_hits, fin_hits = oracle_canonize(ell, ell_coloring), oracle_canonize(fin, fin_coloring)
        assert {x for x, _ in ell_hits} == {x for x, _ in fin_hits}, label
        assert _oracle_kernels(ell, ell_coloring, ell_hits) == _oracle_kernels(
            fin, fin_coloring, fin_hits
        ), label


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_colorings_canonize_alike(data):
    n = data.draw(st.integers(1, 7), label="N")
    rank = data.draw(st.integers(1, min(3, n)), label="rank")
    ell, fin = _pair(n)
    ell_front, fin_front = uniform_front(ell, rank), uniform_front(fin, rank)
    assert ell_front.members == fin_front.members
    size = len(ell_front.members)
    colors = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size), label="colors")
    ell_coloring = Coloring(ell_front, tuple(colors))
    fin_coloring = Coloring(fin_front, ell_coloring.colors)
    _assert_canonizations_agree(ell, fin, ell_coloring, fin_coloring, colors, oracle=False)
