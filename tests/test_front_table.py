"""The per-front table against the per-call computations it replaced.

One table per (model, front) holds the hat, the members extending each
hat segment, the members below each reduct and the oracle's class ids.
The references in helpers.py are the computations as they were made on
every engine, oracle and check; the table must equal them on every
reduct, and be built once and shared by every coloring of its front.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from trspace import (
    DomainError,
    EMPTY,
    FrontTable,
    MixingEngine,
    ParameterError,
    build_ellentuck,
    canonize,
    front_table,
    generated_coloring,
    hat,
    lemma_suite,
    uniform_front,
)
from helpers import (
    ellentuck_instances,
    fin_instances,
    flip_bits,
    reference_class_ids,
    reference_hat,
    reference_members_below,
    tree_instances,
)
from test_relation_layer import LINE_INSTANCES


def _assert_tables_match_reference(model):
    for rank in (1, 2, 3):
        try:
            front = uniform_front(model, rank)
        except ParameterError:  # the truncation is shallower than the rank
            continue
        table = front_table(model, front)
        assert table.hat == reference_hat(model, front) == hat(model, front)
        assert list(table.extending) == list(table.hat)
        for a, mask in table.extending.items():
            assert mask == sum(
                1 << i for i, m in enumerate(front.members) if a in model.segments(m)
            ), a
        for y in (EMPTY, *model.all_reducts()):
            mask = table.members_below(y)
            assert mask == reference_members_below(model, front, y), y
            assert table.members_in(mask) == model.below(front.members, y)
        for pos in range(front.arity()):
            for name in model.selector_names():
                assert table.class_ids(pos, name) == reference_class_ids(
                    model, name, pos, front.members
                ), (pos, name)


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_front_tables_match_the_per_call_computations(name):
    _assert_tables_match_reference(LINE_INSTANCES[name]())


@settings(max_examples=15, deadline=None)
@given(model=st.one_of(ellentuck_instances(5), fin_instances(), tree_instances()))
def test_front_tables_match_the_per_call_computations_on_draws(model):
    _assert_tables_match_reference(model)


def test_every_coloring_of_a_front_shares_one_table(monkeypatch):
    model = build_ellentuck(5)
    front = uniform_front(model, 2)
    builds = []
    build = FrontTable.__init__

    def counting_build(self, *args):
        builds.append(self)
        build(self, *args)

    columns: dict = {}
    class_ids = FrontTable.class_ids

    def recording_class_ids(self, pos, name):
        ids = class_ids(self, pos, name)
        assert columns.setdefault((pos, name), ids) is ids, (pos, name)
        return ids

    monkeypatch.setattr(FrontTable, "__init__", counting_build)
    monkeypatch.setattr(FrontTable, "class_ids", recording_class_ids)
    for name in ("min", "max"):
        coloring = generated_coloring(front, name)
        report = canonize(model, coloring, oracle=True)
        assert report.oracle_agreement["agrees"]
        assert lemma_suite(model, coloring, report.witness, report.phi)["verdict"] == "pass"
    assert len(builds) == 1
    assert model.front_tables() == {front: builds[0]}
    # one column per (position, selector), each asked by both colorings
    assert len(columns) == 2 * len(model.selector_names())


def test_each_model_keeps_its_own_tables():
    # Two models of one instance, the second told that its first member
    # is not below the full reduct: same tag, other relation.
    clean, defective = build_ellentuck(5), build_ellentuck(5)
    front = uniform_front(clean, 2)
    first = front.members[0]
    line = defective._line
    defective._line = lambda a, up: flip_bits(
        defective, {(first, defective.full)}, a, up, line(a, up)
    )
    assert clean.instance_tag() == defective.instance_tag()
    everything = (1 << len(front.members)) - 1
    assert front_table(clean, front).members_below(clean.full) == everything
    assert front_table(defective, front) is not front_table(clean, front)
    assert front_table(defective, front).members_below(defective.full) == everything - 1
    coloring = generated_coloring(front, "min")
    MixingEngine(clean, coloring)
    with pytest.raises(DomainError, match="no approximation inside the front's scope"):
        MixingEngine(defective, coloring)
