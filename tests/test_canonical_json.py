"""The one-pass canonical writer against its defining formula.

`canonical_json` writes a report in one walk; `reference_canonical_json`
(tests/helpers.py) is the formula it replaces, the stock encoder with
`indent=2` over the `to_jsonable` copy. Drawn values must come out byte
for byte the same, values with no JSON form must be refused with the
same exception type, and every recorded golden must be its own
canonical form.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import atom_block, ea, fa, fblk, reference_canonical_json
from trspace import canonical_json
from trspace.reportio import to_jsonable

GOLDEN = Path(__file__).parent / "golden"
# The one golden that is no JSON document: that command's stdout is empty.
EMPTY_STDOUT = "verify-axioms-ellentuck-N-4-max-reducts-3.json"

TEXT = st.text() | st.sampled_from(["", "\x00\x1f\n\t\"\\/", "é—ü", "\U0001f600", " "])
INTS = st.integers() | st.sampled_from([2**64, -(2**70), -1, 0])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-7, -0.0, 0.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308, math.inf]
)
ENGINE = st.sampled_from([ea(), ea(0), ea(1, 3), fa((0,), (1, 2)), fblk(0, 2), atom_block(4)]) | st.lists(
    st.integers(0, 30), max_size=4, unique=True
).map(lambda atoms: ea(*sorted(atoms)))
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXT | ENGINE
KEYS = st.text(max_size=4) | st.sampled_from(["inf", "blocks", "a", "B", "é"])


def containers(inner):
    return st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(
        KEYS, inner, max_size=4
    )


VALUES = st.recursive(LEAVES, containers, max_leaves=24)

# Exactly one value with no JSON form, nested at any depth among
# writable siblings: which refusal comes first is then not in question.
BAD = st.sampled_from([-math.inf, math.nan, {1, 2}, frozenset(), object()])
SIBLINGS = st.lists(VALUES, max_size=2)


def wrap_once(inner):
    in_list = st.tuples(SIBLINGS, inner, SIBLINGS).map(lambda t: [*t[0], t[1], *t[2]])
    in_dict = st.tuples(st.dictionaries(KEYS, VALUES, max_size=2), KEYS, inner).map(
        lambda t: {**t[0], t[1]: t[2]}
    )
    return in_list | in_list.map(tuple) | in_dict


NESTED_BAD = st.recursive(BAD, wrap_once, max_leaves=8)


@given(VALUES)
def test_the_writer_matches_the_reference_formula(value):
    assert canonical_json(value) == reference_canonical_json(value)


@given(NESTED_BAD)
def test_a_value_without_json_form_is_refused_as_the_formula_refuses_it(value):
    refusals = []
    for write in (reference_canonical_json, canonical_json):
        with pytest.raises((TypeError, ValueError)) as refused:
            write(value)
        refusals.append(refused.type)
    assert refusals[0] is refusals[1]


@pytest.mark.parametrize("value", [
    {1: "a", "1": "b"},
    [{"x": {True: 1, "True": 2}}],
    {"outer": ({None: 0, "None": 1},)},
])
def test_keys_with_the_same_str_are_refused(value):
    # str() of both keys is one JSON key: writing both would drop one
    for write in (to_jsonable, canonical_json):
        with pytest.raises(ValueError, match="same str"):
            write(value)


def test_the_only_golden_that_is_no_json_is_an_empty_stdout():
    assert (GOLDEN / EMPTY_STDOUT).read_text() == ""


@pytest.mark.parametrize(
    "path",
    sorted(p for p in GOLDEN.rglob("*.json") if p.name != EMPTY_STDOUT),
    ids=lambda p: str(p.relative_to(GOLDEN)),
)
def test_every_golden_is_its_own_canonical_form(path):
    text = path.read_text()
    assert canonical_json(json.loads(text)) == text


# One key that is neither a str nor an int, alone in its dict, nested at
# any depth among writable siblings: its str() is no stable name.
BAD_KEY = st.sampled_from([None, True, 2.5, (1, 2), frozenset({3, 1}), object()])
NESTED_BAD_KEY = st.recursive(
    st.tuples(BAD_KEY, VALUES).map(lambda t: {t[0]: t[1]}), wrap_once, max_leaves=8
)


@given(NESTED_BAD_KEY)
def test_a_key_that_is_no_str_or_int_is_refused(value):
    for write in (to_jsonable, canonical_json):
        with pytest.raises(TypeError, match="key has no canonical JSON form"):
            write(value)
