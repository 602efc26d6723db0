"""Seeded CLI fuzzing: mutated instance, front and coloring JSON run
through `cli.main` in process. Every run must end with an exit code of
the contract (0, 1, 2 or 3) and no exception may escape `main`."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

import pytest

from trspace import (
    build_ellentuck,
    build_fin,
    build_tree,
    coloring_to_json,
    front_to_json,
    generated_coloring,
    instance_to_json,
    uniform_front,
)
from trspace.cli import COMMANDS, main

MUTATIONS = 300  # per seed
# Replacement values stay small: an Ellentuck N or a FIN level count in
# the millions is slow to build before any budget applies.
SCALARS = (
    0, 1, 2, 3, -1, 7, 40, "", "x", "AU1", None, True, False, 1.5, [], {}, [0], {"atoms": []},
)
# Each run is bounded by a small reduct budget besides the instance size.
BUDGET = ["--max-reducts", "200"]


def _bases() -> list[tuple[list[str], object]]:
    """(shorthand tokens, model) of the instances the documents come from."""
    return [
        (["ellentuck", "N=4"], build_ellentuck(4)),
        (["fin", "blocks=3"], build_fin(3)),
        (["tree", "b=2", "h=2"], build_tree(2, 2)),
    ]


def _documents() -> list[tuple[str, list[str], object]]:
    """(kind, shorthand tokens, valid JSON document) to mutate."""
    docs = []
    for tokens, model in _bases():
        docs.append(("instance", tokens, instance_to_json(model)))
        for rank in (1, 2):
            front = uniform_front(model, rank)
            docs.append(("front", tokens, front_to_json(front)))
            for name in ("min", "union"):
                docs.append(("coloring", tokens, coloring_to_json(generated_coloring(front, name))))
    return docs


def _commands(kind: str, tokens: list[str], path: str) -> list[list[str]]:
    if kind == "instance":
        return [
            ["verify-axioms", "--instance", path, *BUDGET],
            ["mixing-table", "--instance", path, "--front", "AU1", "--coloring", "min", *BUDGET],
        ]
    if kind == "front":
        return [
            ["enumerate-front", *tokens, "--front", path, *BUDGET],
            ["canonize", *tokens, "--front", path, "--coloring", "min", *BUDGET],
        ]
    return [
        ["canonize", *tokens, "--coloring", path, "--oracle", *BUDGET],
        ["weak-mixing", *tokens, "--coloring", path, *BUDGET],
    ]


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, path + (index,))


def _mutate(doc, rng: random.Random):
    """doc with one node retyped, nudged, deleted, duplicated, grafted
    from elsewhere in doc or wrapped in a list."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    path = rng.choice(paths[1:])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key, value = path[-1], parent[path[-1]]
    op = rng.randrange(6)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(SCALARS))
    elif op == 1 and type(value) is int:
        parent[key] = value + rng.choice((-2, -1, 1, 2, 5))
    elif op == 2:
        del parent[key]
    elif op == 3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == 3:
        parent[rng.choice(("extra", "levels", "params", "front", "colors"))] = copy.deepcopy(value)
    elif op == 4:
        graft = rng.choice(paths)
        source = doc
        for step in graft:
            source = source[step]
        parent[key] = copy.deepcopy(source)
    else:
        parent[key] = [value]
    return doc


def _text(doc, rng: random.Random) -> str:
    """The mutated document as file text; one in ten is cut or has one
    character replaced, so that it is no longer JSON."""
    for _ in range(rng.randint(1, 3)):
        if not isinstance(doc, (dict, list)) or not doc:
            break
        doc = _mutate(doc, rng)
    text = json.dumps(doc)
    if rng.random() < 0.1:
        at = rng.randrange(len(text))
        cut = rng.random() < 0.5
        text = text[:at] if cut else text[:at] + rng.choice("{}[],:\"0a") + text[at + 1:]
    return text


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_json_inputs_keep_the_exit_code_contract(tmp_path, seed):
    rng = random.Random(seed)
    docs = _documents()
    path = tmp_path / "input.json"
    codes = set()
    for trial in range(MUTATIONS):
        kind, tokens, doc = rng.choice(docs)
        text = _text(doc, rng)
        path.write_text(text)
        argv = rng.choice(_commands(kind, tokens, str(path)))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # any escape is the finding
            pytest.fail(f"trial {trial}: {argv[0]} raised {exc!r} on {text}")
        assert code in (0, 1, 2, 3), (trial, argv[0], code, text)
        assert "Traceback" not in err.getvalue(), (trial, argv[0], text)
        codes.add(code)
    # the mutations reach past input validation as well as into it
    assert 3 in codes and codes & {0, 1, 2}


NESTING = 100_000  # lists around one node, far past the decoder's recursion limit


def _nested_text(doc, rng: random.Random) -> str:
    """doc as file text with one node, not the root, wrapped in NESTING
    lists; written as text, since json.dumps recurses per level too."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    marker = "\0nested\0"
    value, parent[path[-1]] = parent[path[-1]], marker
    nested = "[" * NESTING + json.dumps(value) + "]" * NESTING
    return json.dumps(doc).replace(json.dumps(marker), nested)


@pytest.mark.parametrize("seed", [0, 1])
def test_nested_json_inputs_keep_the_exit_code_contract(tmp_path, seed):
    # a pass of its own, so that the mutation stream above is unchanged
    rng = random.Random(seed)
    path = tmp_path / "input.json"
    for kind, tokens, doc in _documents():
        text = _nested_text(doc, rng)
        path.write_text(text)
        for argv in _commands(kind, tokens, str(path)):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as exc:  # any escape is the finding
                pytest.fail(f"{argv[0]} on a nested {kind} raised {exc!r}")
            assert (code, out.getvalue()) == (3, ""), (argv, text[:200])
            assert "Traceback" not in err.getvalue(), (argv, text[:200])


HUGE = str(10**15)  # mu counters this many would exceed the address space


def _extreme_argvs() -> list[list[str]]:
    """Each command reading --mu, on each base, with mu far past every
    member count; er-number at targets whose C(m, n) tuples would exceed
    the address space, under a small kernel budget."""
    argvs = [
        [name, *tokens, "--front", "AU2", "--coloring", "min", "--mu", HUGE, *BUDGET]
        for name, _, _, flags, _ in COMMANDS if "mu" in flags
        for tokens, _ in _bases()
    ]
    return argvs + [
        ["er-number", "2", str(10**7), "--max-kernels", "10"],
        ["er-number", "3", str(10**5), "--max-kernels", "10"],
    ]


def test_extreme_integer_flags_keep_the_exit_code_contract():
    # a pass of its own, so that the mutation stream above is unchanged
    for argv in _extreme_argvs():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # any escape is the finding
            pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
