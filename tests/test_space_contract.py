"""What a space must supply: the one-step extensions and the pairwise
order. SpaceModel's default order is atom containment, built from the
per-atom reduct masks, so a space with that order defines nothing else.
Every mask puts reduct i at bit i, which rests on all_reducts() being
strictly increasing in approx_sort_key.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from trspace import Approx, SpaceModel, approx_sort_key

from helpers import fin_instances, tree_instances
from test_relation_layer import LINE_INSTANCES, _assert_lines_match_hook


class AtomSpace(SpaceModel):
    """Ellentuck's two hooks and nothing more: the rows and columns come
    from SpaceModel's defaults."""

    kind = "atoms"

    def __init__(self, n_atoms: int):
        super().__init__([a] for a in range(n_atoms))

    def _leq_fin(self, s: Approx, t: Approx) -> bool:
        return s.atom_set() <= t.atom_set()

    def _extension_blocks(self, s: Approx):
        floor = s.blocks[-1].atoms[0] if s.blocks else -1
        return (b for b in self.full.blocks if b.atoms[0] > floor)


def test_a_space_needs_only_the_extensions_and_the_pairwise_order():
    assert SpaceModel.__abstractmethods__ == {"_leq_fin", "_extension_blocks"}


@pytest.mark.parametrize("n", range(1, 7))
def test_the_default_order_is_atom_containment(n):
    _assert_lines_match_hook(AtomSpace(n))


def _assert_reducts_increase(model):
    keys = [approx_sort_key(y) for y in model.all_reducts()]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("name", sorted(LINE_INSTANCES))
def test_reducts_are_strictly_increasing(name):
    _assert_reducts_increase(LINE_INSTANCES[name]())


@settings(max_examples=25, deadline=None)
@given(model=fin_instances())
def test_reducts_are_strictly_increasing_on_fin_partitions(model):
    _assert_reducts_increase(model)


@settings(max_examples=8, deadline=None)
@given(model=tree_instances())
def test_reducts_are_strictly_increasing_on_drawn_trees(model):
    _assert_reducts_increase(model)
