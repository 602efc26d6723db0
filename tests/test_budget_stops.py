"""A budget stop builds no more than the run reached: the reduct
enumeration draws the one-step extensions lazily, and the Ramsey search
builds a tuple's completion row when it first reaches the tuple."""

from __future__ import annotations

import pytest

from trspace import Block, BudgetExceededError, build_fin
from trspace import spaces
from trspace.ramsey import _CompletionTable, _bad_kernel


def test_a_fin_reduct_budget_stop_builds_few_blocks(monkeypatch):
    # FIN on 16 ground levels has 2^16 - 1 one-step extensions of EMPTY.
    model = build_fin(16)
    built = 0

    def counted_block(**fields):
        nonlocal built
        built += 1
        return Block(**fields)

    monkeypatch.setattr(spaces, "Block", counted_block)
    with pytest.raises(BudgetExceededError):
        model.all_reducts(100)
    assert built <= 101


@pytest.mark.parametrize("n, m", [(2, 8), (3, 6)])
def test_a_kernel_budget_stop_builds_rows_only_as_far_as_it_got(n, m):
    # The search at N = m covers C(m, n) tuples (28 and 20), and each
    # budget unit advances it by at most one tuple.
    table = _CompletionTable(n, m)
    spent = 0

    def spend():
        nonlocal spent
        if spent == 10:
            raise BudgetExceededError("kernel budget of 10 exhausted")
        spent += 1

    with pytest.raises(BudgetExceededError):
        _bad_kernel(table, m, spend)
    assert spent == 10
    assert len(table.rows) <= 11
