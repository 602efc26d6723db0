"""Canonical partition numbers, the searches behind them and their
whole-kernel oracle."""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from helpers import reference_bad_kernels
from trspace import (
    BudgetExceededError,
    Config,
    ParameterError,
    canonical_ramsey_number,
    restricted_growth_strings,
)
from trspace import ramsey
from trspace.ramsey import (
    _CompletionTable,
    _admits_witness,
    _bad_kernels,
    _colex_tuples,
)


def bell_numbers(k: int) -> list[int]:
    """Bell triangle recurrence, independent of the enumerator."""
    rows = [[1]]
    for _ in range(k):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


def test_growth_strings_count_matches_bell():
    bells = bell_numbers(8)
    for k in range(9):
        assert sum(1 for _ in restricted_growth_strings(k)) == bells[k], k


def test_growth_strings_are_valid_and_distinct():
    seen = set()
    for a in restricted_growth_strings(5):
        assert a[0] == 0
        for i in range(1, 5):
            assert a[i] <= max(a[:i]) + 1
        seen.add(a)
    assert len(seen) == bell_numbers(5)[5]


def test_growth_strings_edge_cases():
    assert list(restricted_growth_strings(0)) == [()]
    assert list(restricted_growth_strings(1)) == [(0,)]
    with pytest.raises(ParameterError):
        list(restricted_growth_strings(-1))


def brute_er_number_unary(m: int, limit: int = 16) -> int:
    """Direct witness search over every kernel of [N], no case analysis."""
    for points in range(m, limit + 1):
        good = True
        for kernel in restricted_growth_strings(points):
            if not _has_witness(kernel, points, m):
                good = False
                break
        if good:
            return points
    raise AssertionError("limit too small")


def _has_witness(kernel, points: int, m: int) -> bool:
    for chosen in combinations(range(points), m):
        for index_set in ((), (0,)):
            ok = True
            for a, b in combinations(chosen, 2):
                equal = kernel[a] == kernel[b]
                # distinct points agree on I iff I is empty
                agree = index_set == ()
                if equal != agree:
                    ok = False
                    break
            if ok:
                return True
    return False


def test_unary_numbers_match_direct_search():
    for m in range(1, 4):
        assert canonical_ramsey_number(1, m) == brute_er_number_unary(m)


def test_unary_number_values():
    # least N where every kernel of [N] is constant or injective on
    # some m points: 1, 2, 5, 10
    assert [canonical_ramsey_number(1, m) for m in range(1, 5)] == [1, 2, 5, 10]


def test_pair_numbers_small():
    assert canonical_ramsey_number(2, 1) == 1
    assert canonical_ramsey_number(2, 2) == 2


def test_budget_error_carries_progress():
    # arity one is the closed form and spends no budget; above it a
    # stop carries the largest N shown to have a bad kernel
    assert canonical_ramsey_number(1, 4, Config(max_kernels=1)) == 10
    with pytest.raises(BudgetExceededError) as info:
        canonical_ramsey_number(2, 4, Config(max_kernels=1000))
    assert info.value.largest_checked == 9


def test_parameter_guards():
    with pytest.raises(ParameterError):
        canonical_ramsey_number(0, 2)
    with pytest.raises(ParameterError):
        canonical_ramsey_number(2, 0)


# ---------------------------------------------------------------------------
# The searches against the whole-kernel oracle.

def no_budget(nodes: int = 1) -> None:
    pass


def assert_the_slow_path_gives_the_closed_form(m: int) -> None:
    """The colex search at arity one: up to (m-1)^2 its first bad kernel
    of N is the greedy partition into classes of m-1, and the first N
    it finds none at is the number canonical_ramsey_number returns."""
    searches = _bad_kernels(_CompletionTable(1, m), m, no_budget)
    N = m
    while (kernel := next(searches)) is not None:
        assert _admits_witness(_colex_tuples(N, 1), kernel, 1, m, N) is None, (m, N)
        assert kernel == tuple(i // (m - 1) for i in range(N)), (m, N)
        N += 1
    assert N == (m - 1) ** 2 + 1 == ramsey.canonical_ramsey_number(1, m), m


@pytest.mark.parametrize("m", range(1, 5))
def test_unary_closed_form_against_its_slow_path(m):
    assert_the_slow_path_gives_the_closed_form(m)


def test_unary_numbers_match_closed_form():
    assert [canonical_ramsey_number(1, m) for m in range(1, 9)] == [
        (m - 1) ** 2 + 1 for m in range(1, 9)
    ]


def test_targets_at_most_the_arity_are_vacuous():
    # an m-set holds no n-tuple when m < n and one when m = n, so the
    # search must not take the empty or one-tuple assignment for bad
    pinned = {(2, 1): 1, (3, 1): 1, (3, 2): 2, (3, 3): 3, (2, 2): 2}
    for (n, m), value in pinned.items():
        assert canonical_ramsey_number(n, m) == value, (n, m)
        assert next(_bad_kernels(_CompletionTable(n, m), m, no_budget)) is None, (n, m)


ORACLE_CAP = 2000  # kernels the oracle may test for one (n, m, N)


def oracle_is_bad(n: int, m: int, N: int):
    """True or False when whole-kernel enumeration decides N within the
    cap, None when it does not."""
    tuples = list(combinations(range(N), n))
    for count, kernel in enumerate(restricted_growth_strings(len(tuples))):
        if count == ORACLE_CAP:
            return None
        if _admits_witness(tuples, kernel, n, m, N) is None:
            return True
    return False


def test_colex_search_agrees_with_oracle():
    decided = []
    for n in (2, 3):
        for m in range(1, 6):
            for N in range(m, 8):
                verdict = oracle_is_bad(n, m, N)
                if verdict is None:
                    continue
                decided.append((n, m, N))
                assert (next(_bad_kernels(_CompletionTable(n, m), N, no_budget)) is not None) == verdict, (n, m, N)
    assert (2, 3, 4) in decided and (3, 4, 5) not in decided
    assert len(decided) == 27


CERTIFIED = (
    (1, 4, range(4, 10)), (1, 5, range(5, 17)),
    (2, 3, range(3, 4)), (2, 4, range(4, 11)), (2, 5, range(5, 8)),
    (3, 4, range(4, 7)), (3, 5, range(5, 7)),
)


def test_bad_kernels_are_certified_by_the_oracle():
    for n, m, sizes in CERTIFIED:
        table = _CompletionTable(n, m)
        for N in sizes:
            kernel = next(_bad_kernels(table, N, no_budget))
            assert kernel is not None, (n, m, N)
            assert len(kernel) == len(_colex_tuples(N, n))
            assert _admits_witness(_colex_tuples(N, n), kernel, n, m, N) is None, (n, m, N)


# ---------------------------------------------------------------------------
# The completion table, grown across N, against a table built from
# scratch for each N.

def _completion_tests(N: int, n: int, m: int) -> list[list[tuple[int, frozenset[int]]]]:
    """Per tuple of _colex_tuples(N, n), one (mask, patterns) per m-set
    it completes, with tuple indices looked up in a per-N dict."""
    shape = _colex_tuples(m, n)
    pairs = [(u, v) for v in range(len(shape)) for u in range(v)]
    agreeing = [
        [p for p, (u, v) in enumerate(pairs) if all(shape[u][c] == shape[v][c] for c in I)]
        for r in range(n + 1) for I in combinations(range(n), r)
    ]
    tuples = _colex_tuples(N, n)
    index = {t: k for k, t in enumerate(tuples)}
    tests = []
    for t in tuples:
        row = []
        for rest in combinations(range(t[0]), m - n):
            points = rest + t
            ks = [index[tuple(points[q] for q in s)] for s in shape]
            bits = [1 << (ks[v] * (ks[v] - 1) // 2 + ks[u]) for u, v in pairs]
            row.append((sum(bits), frozenset(sum(bits[p] for p in ps) for ps in agreeing)))
        tests.append(row)
    return tests


@pytest.mark.parametrize("n, m, top", [(2, 4, 11), (2, 5, 11), (3, 4, 7), (3, 5, 7)])
def test_grown_table_equals_the_table_built_per_n(n, m, top):
    table = _CompletionTable(n, m)
    for N in range(1, top + 1):
        rows = table.fill(comb(N, n))
        reference = _completion_tests(N, n, m)
        assert len(rows) == len(reference) == len(_colex_tuples(N, n)), N
        assert rows == reference, N


def test_a_smaller_n_reads_a_prefix_of_the_grown_table():
    table = _CompletionTable(2, 4)
    table.fill(comb(9, 2))
    for N in range(4, 10):
        kernel = next(_bad_kernels(table, N, no_budget))
        assert kernel == next(_bad_kernels(_CompletionTable(2, 4), N, no_budget)), N
        assert len(kernel) == len(_colex_tuples(N, 2))


# ---------------------------------------------------------------------------
# The budget unit above arity one: nodes, one color tried at one tuple.

# Nodes spent on each N until its first bad kernel, recorded before the
# table was grown across N. (2,4) at N=11 and (3,4) at N=6 are the N the
# budget jobs below stop in.
NODES_PER_N = {
    (2, 4): {4: 7, 5: 13, 6: 28, 7: 62, 8: 176, 9: 667, 10: 2817, 11: 12300},
    (3, 4): {4: 7, 5: 107, 6: 447},
}


@pytest.mark.parametrize("n, m", sorted(NODES_PER_N))
def test_nodes_spent_per_n(n, m):
    table = _CompletionTable(n, m)
    spent = {}
    for N in NODES_PER_N[n, m]:
        nodes = 0

        def spend():
            nonlocal nodes
            nodes += 1

        assert next(_bad_kernels(table, N, spend)) is not None, N
        spent[N] = nodes
    assert spent == NODES_PER_N[n, m]


BUDGET_STOPS = (
    (2, 4, 1_000, 10, 9), (2, 4, 5_000, 11, 10), (2, 4, 10_000, 11, 10),
    (3, 4, 300, 6, 5), (3, 4, 5_000, 7, 6), (3, 4, 10_000, 7, 6),
)


@pytest.mark.parametrize("n, m, budget, checking, largest", BUDGET_STOPS)
def test_budget_stops_above_arity_one(n, m, budget, checking, largest):
    with pytest.raises(BudgetExceededError) as info:
        canonical_ramsey_number(n, m, Config(max_kernels=budget))
    assert info.value.largest_checked == largest
    assert str(info.value) == (
        f"kernel budget {budget} exhausted while checking N={checking}; "
        f"largest fully decided N: {largest}"
    )


def test_tiny_budget_stops_fast_at_large_arity():
    # A one-node budget must stop before any heavy set-up: the 2^17
    # agreement patterns of the 18-point shape are cheap only as the
    # AND-closure of the 17 per-coordinate masks.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "trspace.cli", "er-number", "17", "18", "--max-kernels", "1"],
        capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"].endswith("largest fully decided N: None")


# ---------------------------------------------------------------------------
# One search per call resumes across N, and one table per (n, m) serves
# every call of the process.

LADDERS = {(2, 4): range(4, 12), (3, 4): range(4, 7), (2, 5): range(5, 9), (3, 5): range(5, 7)}


@pytest.mark.parametrize("n, m", sorted(LADDERS))
def test_resuming_equals_a_fresh_search_of_each_n(n, m):
    sizes = LADDERS[n, m]
    charged = 0

    def spend(nodes=1):
        nonlocal charged
        charged += nodes

    searches = _bad_kernels(_CompletionTable(n, m), sizes[0], spend)
    for N in sizes:
        charged = 0
        resumed, resumed_cost = next(searches), charged
        charged = 0
        fresh = next(_bad_kernels(_CompletionTable(n, m), N, spend))
        assert fresh is not None, N
        assert (resumed, resumed_cost) == (fresh, charged), N


def test_calls_share_no_search_state(monkeypatch):
    # the nodes each call's search charges to the budget
    costs: list[int] = []
    search = ramsey._bad_kernels

    def counting(table, N, spend):
        costs.append(0)

        def counted(nodes=1):
            costs[-1] += nodes
            spend(nodes)

        return search(table, N, counted)

    monkeypatch.setattr(ramsey, "_bad_kernels", counting)
    messages = []
    for _ in range(2):
        with pytest.raises(BudgetExceededError) as info:
            canonical_ramsey_number(2, 4, Config(max_kernels=5000))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert len(costs) == 2 and costs[0] == costs[1] > 5000


def test_a_second_call_draws_no_new_rows(monkeypatch):
    # 10,000 nodes reach past the tuples of range(10) while checking N=11
    with pytest.raises(BudgetExceededError) as first:
        canonical_ramsey_number(2, 4, Config(max_kernels=10_000))
    table = ramsey._shared_table(2, 4)
    rows = list(table.rows)
    assert len(rows) > len(_colex_tuples(10, 2))

    def no_more_rows():
        raise AssertionError("a row was drawn again")
        yield

    monkeypatch.setattr(table, "more", no_more_rows())
    with pytest.raises(BudgetExceededError) as second:
        canonical_ramsey_number(2, 4, Config(max_kernels=10_000))
    assert str(second.value) == str(first.value)
    assert ramsey._shared_table(2, 4) is table and table.rows == rows


def test_an_exception_inside_a_row_leaves_the_shared_table_usable(monkeypatch):
    monkeypatch.setattr(ramsey, "_shared_table", functools.cache(_CompletionTable))
    ramsey_comb, calls = ramsey.comb, 0

    def comb_failing_once(a, b):
        # the 40th binomial asked for by a row raises, once: a (2, 4) row
        # asks 12 per m-set, so it falls inside tuple 9's second m-set
        nonlocal calls
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_completion_rows":
            frame = frame.f_back
        if frame is not None:
            calls += 1
            if calls == 40:
                raise KeyboardInterrupt
        return ramsey_comb(a, b)

    monkeypatch.setattr(ramsey, "comb", comb_failing_once)
    with pytest.raises(KeyboardInterrupt):
        canonical_ramsey_number(2, 4, Config(max_kernels=1000))
    table = ramsey._shared_table(2, 4)
    assert len(table.rows) == 9
    with pytest.raises(BudgetExceededError) as info:
        canonical_ramsey_number(2, 4, Config(max_kernels=1000))
    assert info.value.largest_checked == 9
    assert str(info.value) == (
        "kernel budget 1000 exhausted while checking N=10; largest fully decided N: 9"
    )
    assert table.rows == _CompletionTable(2, 4).fill(len(table.rows))
    assert calls > 40


# ---------------------------------------------------------------------------
# The search against its reference, the loop as it was before the class
# masks held only the tuples below the depth and the budget became an
# allowance: the same kernel and charge per N, and the same budget stop.

def kernels_and_charges(search, n, m, sizes, allowance):
    """(kernel, nodes charged) per N of one search resumed across sizes,
    under a spend that grants allowance nodes per call."""
    charged = 0

    def spend(nodes=1):
        nonlocal charged
        charged += nodes
        return allowance

    searches = search(_CompletionTable(n, m), sizes[0], spend)
    per_n = []
    for N in sizes:
        charged = 0
        per_n.append((next(searches), charged))
    return per_n


DIFFERENTIAL_LADDERS = {**LADDERS, (4, 5): range(5, 8)}


@pytest.mark.parametrize("n, m", sorted(DIFFERENTIAL_LADDERS))
def test_the_search_charges_each_n_as_the_reference_does(n, m):
    sizes = DIFFERENTIAL_LADDERS[n, m]
    reference = kernels_and_charges(reference_bad_kernels, n, m, sizes, None)
    assert all(kernel is not None for kernel, _ in reference)
    for allowance in (None, 0, 1, 2, 7, 10**9):
        assert kernels_and_charges(_bad_kernels, n, m, sizes, allowance) == reference, allowance


def budget_stop(n, m, budget, search):
    """The BudgetExceededError message of canonical_ramsey_number(n, m)
    under budget, with search as its _bad_kernels, and the nodes charged
    when it stopped. The message alone cannot tell a stop one node late:
    both searches charge their pending nodes before a kernel is yielded,
    so the N it names is the same."""
    charged = 0

    def searching(table, N, spend):
        def counted(nodes=1):
            nonlocal charged
            charged += nodes
            return spend(nodes)

        return search(table, N, counted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ramsey, "_bad_kernels", searching)
        with pytest.raises(BudgetExceededError) as info:
            canonical_ramsey_number(n, m, Config(max_kernels=budget))
    return str(info.value), charged


def assert_stops_as_the_reference(n, m, budgets):
    search = ramsey._bad_kernels
    for budget in budgets:
        assert budget_stop(n, m, budget, search) == budget_stop(
            n, m, budget, reference_bad_kernels
        ), (n, m, budget)


@pytest.mark.parametrize("n, m", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_every_small_budget_stops_as_the_reference(n, m):
    assert_stops_as_the_reference(n, m, range(1, 401))


@pytest.mark.parametrize("n, m", [(2, 4), (3, 4)])
def test_seeded_budgets_stop_as_the_reference(n, m):
    rng = random.Random(f"budget {n} {m}")
    assert_stops_as_the_reference(n, m, [rng.randint(1, 20_000) for _ in range(100)])
