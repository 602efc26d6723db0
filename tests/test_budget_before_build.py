"""A budget refuses before the work it bounds: an Ellentuck instance
over --max-reducts is refused by its closed-form count before its
levels exist. An arity-one Ramsey number is its closed form, which
builds no kernel under any budget."""

from __future__ import annotations

import contextlib
import io
import tracemalloc

import pytest

from trspace import BudgetExceededError, Config, canonical_ramsey_number, instance_from_json
from trspace import cli, spaces
from trspace.errors import ParameterError
from trspace.ramsey import _CompletionTable, _admits_witness, _bad_kernels, _colex_tuples


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_an_ellentuck_instance_over_budget_is_refused_unbuilt(monkeypatch):
    def unbuilt(self, n_atoms):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(spaces.EllentuckModel, "__init__", unbuilt)
    code, out, err = _main(["verify-axioms", "ellentuck", "N=300000", "--max-reducts", "10"])
    assert (code, out) == (2, "")
    assert err == (
        "budget exceeded: reduct enumeration of the ellentuck instance"
        " passed the max_reducts budget of 10\n"
    )


@pytest.mark.parametrize("limit", [1, 2, 6, 7, 8, 14, 15, 16, 500_000])
def test_the_admission_before_the_build_is_the_closed_form(limit):
    # 2^N - 1 reducts, admitted iff at most limit, at each side of a power of two
    for n in range(1, 21):
        payload = {"instance": "ellentuck", "params": {"N": n}}
        if 2 ** n - 1 <= limit:
            assert len(instance_from_json(payload, limit).levels) == n
        else:
            with pytest.raises(BudgetExceededError, match=f"max_reducts budget of {limit}$"):
                instance_from_json(payload, limit)


def test_an_instance_given_by_its_levels_is_refused_before_enumeration(monkeypatch):
    # Given levels, the instance is built first, so that mismatched
    # levels stay an input error; its closed form then refuses the first
    # enumeration before a reduct is made.
    def unenumerated(self, budget=None):
        raise AssertionError("the reducts were enumerated")

    payload = {"instance": "ellentuck", "params": {"N": 25}, "levels": [[a] for a in range(25)]}
    model = instance_from_json(payload, 10)
    monkeypatch.setattr(spaces.EllentuckModel, "_enumerate_reducts", unenumerated)
    for _ in range(2):  # a refused call stores nothing, so it refuses again
        with pytest.raises(BudgetExceededError, match="max_reducts budget of 10$"):
            model.all_reducts(10)


def test_admission_leaves_other_input_errors_first():
    # a bad atom count and mismatched levels are input errors as before
    code, _, err = _main(["verify-axioms", "ellentuck", "N=0", "--max-reducts", "10"])
    assert (code, err) == (3, "error: ellentuck instance needs at least one atom\n")
    payload = {"instance": "ellentuck", "params": {"N": 5}, "levels": [[0]]}
    with pytest.raises(ParameterError, match="do not match"):
        instance_from_json(payload, 10)


def test_an_arity_one_budget_stop_builds_no_kernel():
    # a kernel of N >= m = 10^7 has 10^7 entries; the closed form
    # answers under a 5-node budget without building one
    tracemalloc.start()
    try:
        value = canonical_ramsey_number(1, 10**7, Config(max_kernels=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == (10**7 - 1) ** 2 + 1
    assert peak < 1_000_000


@pytest.mark.parametrize("m, N", [(4, 9), (5, 16), (3, 3)])
def test_an_arity_one_kernel_reads_as_its_colors(m, N):
    kernel = next(_bad_kernels(_CompletionTable(1, m), N, lambda nodes=1: None))
    colors = tuple(i // (m - 1) for i in range(N))
    assert kernel == colors and colors == kernel and list(kernel) == list(colors)
    assert len(kernel) == N and kernel[N - 1] == colors[-1]
    with pytest.raises(IndexError):
        kernel[N]
    assert _admits_witness(_colex_tuples(N, 1), kernel, 1, m, N) is None
