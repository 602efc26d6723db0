"""A budget stop builds no more than the run reached: the reduct
enumeration draws the one-step extensions lazily, and the Ramsey search
builds a tuple's completion row when it first reaches the tuple."""

from __future__ import annotations

import pytest

from trspace import Block, BudgetExceededError, Config, build_fin, canonical_ramsey_number
from trspace import ramsey, spaces
from trspace.ramsey import _CompletionTable, _bad_kernels


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
        next(_bad_kernels(table, m, spend))
    assert spent == 10
    assert len(table.rows) <= 11


@pytest.mark.parametrize("n, m", [(2, 10**7), (3, 10**5), (2, 10**15)])
def test_a_kernel_budget_stop_allocates_nothing_per_tuple_it_did_not_reach(n, m):
    # C(m, n) colors at N = m would exceed the address space, and no
    # tuple the budget reaches completes an m-set, so its row must be
    # built without a combinations pool of m - n indices (which at
    # m = 10^15 would exceed it too).
    with pytest.raises(BudgetExceededError) as info:
        canonical_ramsey_number(n, m, Config(max_kernels=10))
    assert info.value.largest_checked is None
    assert len(ramsey._shared_table(n, m).rows) <= 11
