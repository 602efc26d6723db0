"""lemma_suite against the plain pair scans it short-cuts.

tests/helpers.py keeps the suite as it was, every check an all-pairs
scan, as reference_lemma_suite. Each report here must equal that
reference byte for byte, violations and their order included: on drawn
instances, on a front whose members have unequal lengths, on a failing
fixture and on maps the suite must refuse.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    GENERATORS,
    DomainError,
    Front,
    InnerMap,
    SpaceError,
    build_ellentuck,
    canonical_json,
    canonize,
    front_from_json,
    front_to_json,
    generated_coloring,
    lemma_suite,
    uniform_front,
)
from helpers import ellentuck_instances, fin_instances, reference_lemma_suite, tree_instances
from test_canonize import drawn_colorings


def outcome(suite, model, coloring, witness, phi):
    """The suite's report as canonical text, or the exception it raised."""
    try:
        return canonical_json(suite(model, coloring, witness, phi))
    except SpaceError as err:  # the two suites must refuse alike too
        return type(err), str(err)


def assert_as_the_reference(model, coloring, witness, phi):
    mine = outcome(lemma_suite, model, coloring, witness, phi)
    assert mine == outcome(reference_lemma_suite, model, coloring, witness, phi), (witness, phi)
    return mine


@settings(max_examples=150, deadline=None)
@given(
    drawn=drawn_colorings(st.one_of(ellentuck_instances(), fin_instances(), tree_instances())),
    data=st.data(),
)
def test_lemma_suite_matches_the_reference_on_drawn_instances(drawn, data):
    model, coloring = drawn
    family = st.sampled_from(model.selector_names())
    phi = InnerMap(tuple(data.draw(family) for _ in range(coloring.front.arity())))
    witness = data.draw(st.sampled_from(model.all_reducts()))
    assert_as_the_reference(model, coloring, witness, phi)


def schreier_barrier(model):
    """The members whose length is one more than their first atom: on
    Ellentuck N=5, ({0}), three of length 2 and ({2},{3},{4}); loaded
    through front_from_json, so the front laws are checked."""
    members = {
        model.restrict(y, y.blocks[0].atoms[0] + 1)
        for y in model.all_reducts() if len(y) > y.blocks[0].atoms[0]
    }
    front = Front(tuple(members), scope=model.full, instance=model.instance_tag())
    return front_from_json(model, front_to_json(front))


def test_lemma_suite_matches_the_reference_on_the_schreier_barrier():
    e5 = build_ellentuck(5)
    front = schreier_barrier(e5)
    assert sorted(map(len, front.members)) == [1, 2, 2, 2, 3]
    colorings = [generated_coloring(front, name) for name in sorted(GENERATORS)] + [
        generated_coloring(front, "random-kernel", seed=seed) for seed in range(60)
    ]
    maps = [InnerMap(names) for names in itertools.product(e5.selector_names(), repeat=3)]
    with_prefix_violations = 0
    for coloring in colorings:
        for phi in maps:
            report = json.loads(assert_as_the_reference(e5, coloring, e5.full, phi))
            with_prefix_violations += bool(report["prefix_freeness"]["violations"])
    # Members of unequal lengths reach the members x members prefix scan.
    assert with_prefix_violations


def test_lemma_suite_matches_the_reference_on_a_failing_fixture(fin3):
    constant = generated_coloring(uniform_front(fin3, 1), "constant")
    report = canonize(fin3, constant)
    text = assert_as_the_reference(fin3, constant, report.witness, InnerMap(("min",)))
    suite = json.loads(text)
    assert suite["verdict"] == "fail"
    assert len(suite["color_respects_phi"]["violations"]) == 14
    assert len(suite["class_uniqueness"]["violations"]) == 22


@pytest.mark.parametrize("selectors, raises", [
    (("keep",), True),           # shorter than the members
    (("keep", "nope"), True),    # a selector the space does not have
    (("keep", "keep", "keep"), False),
])
def test_lemma_suite_refuses_a_malformed_map_as_the_reference(e6, selectors, raises):
    cmax = generated_coloring(uniform_front(e6, 2), "max")
    report = canonize(e6, cmax)
    mine = assert_as_the_reference(e6, cmax, report.witness, InnerMap(selectors))
    assert (mine[0] is DomainError) == raises
