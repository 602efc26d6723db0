"""Command line contract: exit codes, JSON envelopes, determinism."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from trspace import (
    DEFAULT_CONFIG,
    Config,
    FusionExhaustedError,
    MixingEngine,
    NoInnerWitnessError,
    build_ellentuck,
    coloring_to_json,
    front_to_json,
    generated_coloring,
    instance_to_json,
    uniform_front,
)
from trspace import cli, ramsey
from trspace.cli import main
from trspace.reportio import approx_to_json, canonical_json, config_to_json, report_envelope
from trspace.spaces import EllentuckModel

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# The three documented invocations.

def test_axiom_check_passes_on_small_ellentuck(capsys):
    code, rep = run(capsys, ["verify-axioms", "ellentuck", "N=5"])
    assert code == 0
    assert [r["verdict"] for r in rep["reports"]] == ["pass", "pass", "pass"]
    assert [r["check"] for r in rep["reports"]] == ["A1", "A2", "A3"]


def test_canonize_with_oracle_agrees(capsys):
    code, rep = run(
        capsys,
        ["canonize", "ellentuck", "N=6", "--front", "AU2", "--coloring", "min", "--oracle"],
    )
    assert code == 0
    assert rep["result"]["phi"] == ["keep", "drop"]
    assert rep["result"]["oracle_agreement"]["agrees"] is True


def test_mixing_table_reports_nontransitive_triple(capsys):
    code, rep = run(
        capsys,
        ["mixing-table", "fin", "blocks=3", "--coloring", "union", "--front", "AU2"],
    )
    assert code == 1
    tr = rep["transitivity"]
    assert tr["verdict"] == "pass"  # the equal-depth law itself holds
    assert tr["equal_depth"] == []
    assert len(tr["unequal_depth"]) >= 1  # unequal-depth failures are findings


# ---------------------------------------------------------------------------
# Remaining commands.

def test_enumerate_front(capsys):
    code, rep = run(capsys, ["enumerate-front", "ellentuck", "N=6", "--front", "AU2"])
    assert code == 0
    assert rep["count"] == 15
    assert len(rep["front"]["members"]) == 15


@pytest.mark.parametrize("tokens", [["ellentuck", "N=4"], ["fin", "blocks=3"], ["tree", "b=2", "h=2"]])
@pytest.mark.parametrize("label", ["AU1", "AU2", "AU3"])
def test_enumerate_front_writes_the_text_of_front_to_json(capsys, tokens, label):
    # the body holds the Front's own approximations; its text must be
    # that of the front_to_json copy
    assert main(["enumerate-front", *tokens, "--front", label]) == 0
    model = cli._parse_instance(tokens, None, DEFAULT_CONFIG.max_reducts)
    front = cli._build_front(model, label)
    body = {"check": "enumerate_front", "front": front_to_json(front), "count": len(front)}
    assert capsys.readouterr().out == canonical_json(report_envelope(model, body, DEFAULT_CONFIG))


def test_transitivity_counts(capsys):
    code, rep = run(
        capsys, ["transitivity", "fin", "blocks=4", "--coloring", "union", "--front", "AU2"]
    )
    assert code == 1
    body = rep["report"]
    assert body["verdict"] == "pass"
    assert body["equal_depth"] == []
    assert len(body["unequal_depth"]) == 18


def test_weak_mixing_witnesses(capsys):
    code, rep = run(
        capsys, ["weak-mixing", "fin", "blocks=4", "--coloring", "union", "--front", "AU2"]
    )
    assert code == 1
    assert len(rep["witnesses"]) == 9
    assert rep["pairs_scanned"] >= 9


def test_weak_mixing_clean_coloring(capsys):
    code, rep = run(
        capsys,
        ["weak-mixing", "ellentuck", "N=6", "--coloring", "constant", "--front", "AU2"],
    )
    assert code == 0
    assert rep["witnesses"] == []


def test_lemma_suite_passes(capsys):
    code, rep = run(
        capsys, ["lemma-suite", "ellentuck", "N=6", "--front", "AU2", "--coloring", "min"]
    )
    assert code == 0
    assert rep["suite"]["verdict"] == "pass"
    assert rep["canonize"]["verdict"] == "pass"


def test_er_number_value(capsys):
    code, rep = run(capsys, ["er-number", "1", "3"])
    assert code == 0
    assert rep["value"] == 5
    assert rep["verdict"] == "pass"


def test_er_number_budget_is_undecided(capsys):
    code, rep = run(capsys, ["er-number", "2", "4", "--max-kernels", "1000"])
    assert code == 2
    assert rep["verdict"] == "undecided"
    assert rep["largest_checked"] == 9
    assert "budget" in rep["error"]


def test_running_out_of_memory_is_undecided(capsys, monkeypatch):
    def exhaust(n, m, config):
        raise MemoryError

    monkeypatch.setattr(ramsey, "canonical_ramsey_number", exhaust)
    code = main(["er-number", "10", "11"])
    captured = capsys.readouterr()
    # exit 1 is kept for findings; memory, not a budget, stopped the run
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("out of memory:")
    assert "budget" in captured.err


def test_a_space_error_is_undecided(capsys, monkeypatch):
    def exhausted(engine):
        raise FusionExhaustedError(1)

    monkeypatch.setattr(MixingEngine, "deciding_reduct", exhausted)
    code = main(["mixing-table", "fin", "blocks=3", "--coloring", "union", "--front", "AU2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "undecided: fusion refinement failed at stage 1\n"


@pytest.mark.parametrize("command", ["canonize", "lemma-suite"])
def test_canonize_without_any_witness_is_undecided(capsys, monkeypatch, command):
    # `import trspace.canonize as C` would bind the lazily exported
    # function, not the module.
    canonize_module = importlib.import_module("trspace.canonize")

    def no_witness(engine, z0, config):
        raise NoInnerWitnessError("no selector fuses")

    monkeypatch.setattr(canonize_module, "_assemble", no_witness)
    monkeypatch.setattr(canonize_module, "_fallback", lambda model, coloring: None)
    code, rep = run(capsys, [command, "ellentuck", "N=4", "--front", "AU2", "--coloring", "min"])
    assert code == 2
    result = rep["result"] if command == "canonize" else rep["canonize"]
    assert result["verdict"] == "undecided"
    assert result["witness"] == approx_to_json(build_ellentuck(4).full)
    assert result["phi"] == ["drop", "drop"]
    assert (result["stats"]["retries_used"], result["stats"]["fallback"]) == (3, False)
    if command == "lemma-suite":
        assert rep["suite"] is None


# ---------------------------------------------------------------------------
# Envelope contents.

def test_reports_embed_full_config(capsys):
    code, rep = run(
        capsys,
        ["canonize", "ellentuck", "N=5", "--front", "AU2", "--coloring", "min",
         "--mu", "2", "--seed", "9"],
    )
    assert code == 0
    cfg = rep["config"]
    assert set(cfg) == {"mu", "depth_budget", "max_reducts", "max_kernels", "seed"}
    assert (cfg["mu"], cfg["seed"]) == (2, 9)
    assert rep["instance"]["instance"] == "ellentuck"
    assert rep["instance"]["params"] == {"N": 5}
    assert rep["instance_tag"].startswith("ellentuck:")


def test_depth_budget_reaches_fusion(capsys):
    argv = ["mixing-table", "ellentuck", "N=6", "--front", "AU3", "--coloring", "max"]
    _, free = run(capsys, argv)
    _, capped = run(capsys, argv + ["--depth-budget", "1"])
    assert capped["config"]["depth_budget"] == 1
    # Stage A stops shrinking after its second stage, on a larger reduct.
    assert len(capped["table"]["reduct"]["blocks"]) > len(free["table"]["reduct"]["blocks"])


def test_instance_from_file(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(build_ellentuck(5))))
    code, rep = run(capsys, ["verify-axioms", "--instance", str(path)])
    assert code == 0
    assert [r["verdict"] for r in rep["reports"]] == ["pass", "pass", "pass"]
    # an instance file comes only through --instance, never as a token
    code, rep = run(capsys, ["verify-axioms", str(path)])
    assert (code, rep) == (3, None)


def test_repeat_runs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["canonize", "fin", "blocks=4", "--front", "AU1", "--coloring", "minmax",
            "--oracle", "--seed", "3"]
    code, rep = run(capsys, argv + ["--out", str(a)])
    assert code == 0
    assert json.loads(a.read_text()) == rep
    code, _ = run(capsys, argv + ["--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["missing-dir", "directory"])
def test_an_unwritable_out_prints_nothing(capsys, tmp_path, where):
    # exit 3 leaves stdout empty: the report goes to --out before stdout
    argv = ["verify-axioms", "ellentuck", "N=4", "--out", str(tmp_path / where)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# Malformed invocations exit 3.

@pytest.mark.parametrize(
    "argv",
    (
        ["verify-axioms", "quux", "N=5"],
        ["verify-axioms", "fin", "span_cap=2"],  # blocks missing
        ["verify-axioms", "fin", "blocks=3", "span-cap=2"],  # the key is span_cap
        ["verify-axioms", "ellentuck", "N=4", "N=5"],  # one value per key
        ["verify-axioms", "ellentuck", "N=0"],
        ["canonize", "ellentuck", "N=6", "--front", "ZZZ", "--coloring", "min"],
        ["canonize", "ellentuck", "N=6", "--front", "AX2", "--coloring", "min"],
        # AU<k> is the one spelling of a uniform front
        ["enumerate-front", "ellentuck", "N=4", "--front", "au1"],
        ["enumerate-front", "ellentuck", "N=4", "--front", "Au1"],
        ["enumerate-front", "ellentuck", "N=4", "--front", "AU_1"],
        ["enumerate-front", "ellentuck", "N=4", "--front", "au_1"],
        ["enumerate-front", "ellentuck", "N=4", "--front", "AU01"],
        ["canonize", "ellentuck", "N=6", "--front", "AU2"],  # coloring missing
        ["canonize", "ellentuck", "N=6", "--front", "AU2", "--coloring", "no-such"],
        ["verify-axioms", "--instance", "/no/such/file.json"],
        ["verify-axioms"],  # no instance at all
        ["no-such-command"],
        ["er-number", "1"],  # m missing
        # the one member of the rank-0 front, EMPTY, has no atoms to read
        ["canonize", "fin", "blocks=3", "--front", "AU0", "--coloring", "parity"],
        ["mixing-table", "fin", "blocks=3", "--front", "AU0", "--coloring", "min"],
        ["lemma-suite", "ellentuck", "N=4", "--front", "AU0", "--coloring", "max"],
        ["weak-mixing", "tree", "b=2", "h=1", "--front", "AU0", "--coloring", "minmax"],
        # every flag is written out in full
        ["canonize", "ellentuck", "N=4", "--fr", "AU1", "--col", "min", "--orac"],
        ["verify-axioms", "ellentuck", "N=4", "--max-r", "20"],
        ["--hel"],
        # canonize's retry count is a constant, not a flag
        ["canonize", "ellentuck", "N=4", "--front", "AU1", "--coloring", "min", "--retries", "4"],
        ["lemma-suite", "ellentuck", "N=4", "--front", "AU1", "--coloring", "min", "--retries", "4"],
    ),
)
def test_usage_errors(capsys, argv):
    assert run(capsys, argv) == (3, None)


# ---------------------------------------------------------------------------
# Each command takes the Config flags its run reads, spelled out in full.

INPUT_DESTS = {
    "instance": {"instance", "instance_path"},
    "front": {"front"},
    "coloring": {"coloring"},
    "oracle": {"oracle"},
    "arity": {"n", "m"},
}
CONFIG_FIELDS = tuple(f.name for f in fields(Config))


def _valid_argv(name, inputs):
    """An invocation of the command that parses."""
    if "arity" in inputs:
        return [name, "1", "3"]
    argv = [name, "ellentuck", "N=4"]
    if "front" in inputs:
        argv += ["--front", "AU1"]
    if "coloring" in inputs:
        argv += ["--coloring", "min"]
    return argv


@pytest.mark.parametrize(
    "name, inputs, flags", [pytest.param(c[0], c[2], c[3], id=c[0]) for c in cli.COMMANDS]
)
def test_each_command_takes_only_the_config_flags_it_reads(capsys, name, inputs, flags):
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[name]
    expected = {"help", "out"}.union(*(INPUT_DESTS[i] for i in inputs), flags)
    assert {a.dest for a in sub._actions} == expected
    assert set(flags) <= set(CONFIG_FIELDS)
    for unread in sorted(set(CONFIG_FIELDS) - set(flags)):
        flag = "--" + unread.replace("_", "-")
        code = main(_valid_argv(name, inputs) + [flag, "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"unrecognized arguments: {flag} 5" in captured.err


def test_readme_lists_the_config_flags_of_each_command():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    documented = {}
    for row in readme.splitlines():
        cells = row.split("|")
        if row.startswith("| `") and cells[2].strip().startswith("`--"):
            flags = tuple(f.replace("-", "_") for f in re.findall(r"`--([a-z-]+)`", cells[2]))
            documented.update((name, flags) for name in re.findall(r"`([a-z-]+)`", cells[1]))
    assert documented == {c[0]: c[3] for c in cli.COMMANDS}
    assert sum(map(len, documented.values())) == 24


def test_tree_height_past_the_node_cap_exits_3_at_once(capsys):
    # The cap is met level by level; the message names the cap, not a
    # count with thousands of digits.
    start = time.perf_counter()
    code = main(["verify-axioms", "tree", "b=2", "h=20000"])
    elapsed = time.perf_counter() - start
    assert code == 3 and elapsed < 1.0
    assert "budget of 2000 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("generator", ["constant", "injective", "union", "identity", "random-kernel"])
def test_rank_zero_front_takes_colorings_that_read_no_atoms(capsys, generator):
    code, rep = run(capsys, ["canonize", "fin", "blocks=3", "--front", "AU0", "--coloring", generator])
    assert code == 0
    assert rep["result"]["stats"]["members_on_witness"] == 1


def test_malformed_instance_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _ = run(capsys, ["verify-axioms", "--instance", str(path)])
    assert code == 3


def _malformed_inputs() -> dict:
    """Input files that are well-formed JSON but not a valid instance,
    front or coloring, by name: (option, payload)."""
    model = build_ellentuck(4)
    front = front_to_json(uniform_front(model, 1))
    coloring = coloring_to_json(generated_coloring(uniform_front(model, 1), "min"))

    def plus_member(block):
        return dict(front, members=front["members"] + [{"blocks": [block]}])

    return {
        "instance-N-not-int": ("--instance", {"instance": "ellentuck", "params": {"N": "abc"}}),
        "instance-list": ("--instance", [1, 2]),
        "instance-span-cap-not-int": (
            "--instance", {"instance": "fin", "levels": [[0], [1]], "params": {"span_cap": "x"}}),
        "instance-string-atoms": ("--instance", {"instance": "fin", "levels": [["a"]]}),
        "instance-levels-string": ("--instance", {"instance": "fin", "levels": "ab"}),
        "instance-unknown-param": ("--instance", {"instance": "ellentuck", "params": {"N": 4, "M": 2}}),
        "instance-levels-mismatch": (
            "--instance", {"instance": "ellentuck", "params": {"N": 4}, "levels": [[0], [1]]}),
        "front-no-members": ("--front", {k: v for k, v in front.items() if k != "members"}),
        "front-block-no-atoms": ("--front", plus_member({"source": [1, 2]})),
        "front-atoms-string": ("--front", plus_member({"source": [1, 2], "atoms": "a"})),
        "front-list": ("--front", [front]),
        "coloring-no-colors": ("--coloring", {k: v for k, v in coloring.items() if k != "colors"}),
        "coloring-front-int": ("--coloring", dict(coloring, front=5)),
    }


MALFORMED = _malformed_inputs()
MALFORMED_ARGV = {
    "--instance": ["verify-axioms", "--instance"],
    "--front": ["enumerate-front", "ellentuck", "N=4", "--front"],
    "--coloring": ["canonize", "ellentuck", "N=4", "--coloring"],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_json_inputs_exit_3(capsys, tmp_path, name):
    option, payload = MALFORMED[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main(MALFORMED_ARGV[option] + [str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("option", sorted(MALFORMED_ARGV))
def test_deeply_nested_json_inputs_exit_3(capsys, tmp_path, option):
    # the JSON decoder recurses per level and gives up long before 10^5
    path = tmp_path / "input.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(MALFORMED_ARGV[option] + [str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Budgets and JSON inputs are checked against the instance.

def test_max_reducts_budget_is_honoured(capsys):
    code = main(["verify-axioms", "ellentuck", "N=4", "--max-reducts", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "reduct enumeration" in err and "max_reducts budget of 3" in err
    code, rep = run(capsys, ["verify-axioms", "ellentuck", "N=4", "--max-reducts", "15"])
    assert code == 0
    assert rep["reports"][0]["stats"]["reducts"] == 15


@pytest.mark.parametrize("n", [30, 100_000])
def test_ellentuck_over_budget_is_refused_before_enumerating(capsys, monkeypatch, n):
    # 2^N - 1 reducts: the count alone refuses the instance
    def enumerate_blocks(self, s):
        raise AssertionError("the reducts were enumerated")

    monkeypatch.setattr(EllentuckModel, "_extension_blocks", enumerate_blocks)
    code = main(["verify-axioms", "ellentuck", f"N={n}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "budget exceeded: reduct enumeration of the ellentuck instance passed"
        " the max_reducts budget of 500000\n"
    )


def test_front_json_is_checked_against_the_instance(capsys, tmp_path):
    _, rep = run(capsys, ["enumerate-front", "ellentuck", "N=4", "--front", "AU1"])
    front = rep["front"]
    stray = {"blocks": [{"atoms": [9], "source": [10, 11]}]}
    head = {"blocks": [{"atoms": [0], "source": [1, 2]}, {"atoms": [1], "source": [2, 3]}]}
    cases = {
        "same.json": (front, 0),
        "stray.json": (dict(front, members=front["members"] + [stray]), 3),
        # without {0}, every reduct starting at atom 0 dodges the family
        "dodged.json": (dict(front, members=front["members"][1:]), 3),
        "twice.json": (dict(front, members=front["members"] + front["members"][:1]), 3),
        "no_scope.json": (dict(front, scope={"blocks": []}), 3),
        # {0} and {1} cover the scope; {2} and {3} lie outside it
        "outside.json": (dict(front, scope=head), 3),
        "anchor.json": (dict(front, anchor={"blocks": [{"atoms": [99], "source": [7, 8]}]}), 3),
    }
    for name, (payload, want) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code, _ = run(capsys, ["enumerate-front", "ellentuck", "N=4", "--front", str(path)])
        assert code == want, name
        code, _ = run(
            capsys,
            ["canonize", "ellentuck", "N=4", "--front", str(path), "--coloring", "min"],
        )
        assert code == want, name


@pytest.mark.parametrize("rank", [3, 4])
def test_enumerated_fronts_of_rank_3_and_4_round_trip(capsys, tmp_path, rank):
    argv = ["enumerate-front", "ellentuck", "N=5", "--front"]
    code, rep = run(capsys, argv + [f"AU{rank}"])
    assert code == 0
    path = tmp_path / f"au{rank}.json"
    path.write_text(json.dumps(rep["front"]))
    code, again = run(capsys, argv + [str(path)])
    assert code == 0
    assert again["front"] == rep["front"]


REFUSED_ARGV = {
    "instance and tokens": (
        ["verify-axioms", "ellentuck", "N=3", "--instance", "inst.json"],
        "error: give either --instance or shorthand tokens, not both\n",
    ),
    "non-integer parameter": (
        ["verify-axioms", "ellentuck", "N=x"],
        "error: parameter 'N=x' is not an integer\n",
    ),
    "no front": (
        ["enumerate-front", "ellentuck", "N=3"],
        "error: this command needs --front\n",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGV))
def test_refused_invocations_exit_3(capsys, case):
    argv, message = REFUSED_ARGV[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", message)


def test_json_colors_follow_the_listed_members(capsys, tmp_path):
    _, rep = run(capsys, ["enumerate-front", "ellentuck", "N=4", "--front", "AU1"])
    front = rep["front"]
    # both files color {3} alone, one listing the members in reverse
    files = {
        "reversed.json": dict(front, members=front["members"][::-1]),
        "sorted.json": front,
    }
    colors = {"reversed.json": [1, 0, 0, 0], "sorted.json": [0, 0, 0, 1]}
    reports = []
    for name, listed in files.items():
        path = tmp_path / name
        path.write_text(json.dumps({"front": listed, "colors": colors[name]}))
        code, report = run(
            capsys, ["canonize", "ellentuck", "N=4", "--coloring", str(path), "--oracle"]
        )
        assert code == 0, name
        reports.append(report)
    assert reports[0] == reports[1]


def test_reversed_member_is_not_an_approximation(capsys, tmp_path):
    _, rep = run(capsys, ["enumerate-front", "ellentuck", "N=4", "--front", "AU2"])
    front = rep["front"]
    members = [
        dict(m, blocks=m["blocks"][::-1])
        if [a for b in m["blocks"] for a in b["atoms"]] == [1, 3] else m
        for m in front["members"]
    ]
    assert members != front["members"]
    bad = dict(front, members=members)
    coloring = coloring_to_json(generated_coloring(uniform_front(build_ellentuck(4), 2), "min"))
    inputs = {
        "--front": ("bad.json", bad, ["enumerate-front", "ellentuck", "N=4", "--front"]),
        "--coloring": ("bad_coloring.json", dict(coloring, front=bad),
                       ["canonize", "ellentuck", "N=4", "--coloring"]),
    }
    for name, payload, argv in inputs.values():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), name
        assert "is not inside the ellentuck instance" in captured.err


def test_json_coloring_carries_its_own_front(capsys, tmp_path):
    path = tmp_path / "au2-min.json"
    coloring = generated_coloring(uniform_front(build_ellentuck(5), 2), "min")
    path.write_text(json.dumps(coloring_to_json(coloring)))
    code, rep = run(capsys, ["canonize", "ellentuck", "N=5", "--coloring", str(path)])
    assert code == 0
    code, same = run(
        capsys, ["canonize", "ellentuck", "N=5", "--front", "AU2", "--coloring", "min"]
    )
    assert code == 0
    assert rep == same
    # a --front beside it is a conflict, not a front to drop silently
    code = main(["canonize", "ellentuck", "N=5", "--front", "AU1", "--coloring", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "carries its own front" in captured.err and "--front AU1" in captured.err


# ---------------------------------------------------------------------------
# main builds its parser once per process and shares it between calls.

def test_the_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    per_call = []
    for argv in (
        ["verify-axioms", "ellentuck", "N=3"],
        ["enumerate-front", "ellentuck", "N=4", "--front", "AU1"],
        ["er-number", "1", "3"],
    ):
        before = len(built)
        assert main(argv) == 0
        capsys.readouterr()
        per_call.append(len(built) - before)
    # the root parser and one per command, all on the first call
    assert per_call == [1 + len(cli.COMMANDS), 0, 0]


# (argv, exit code), run in this order in one process. The first three
# leave the parser by exit 2, --help and an argparse error; the oracle
# run sets a seed, --oracle and --out, which no later call may inherit.
SHARED_PARSER_SEQUENCE = (
    (["verify-axioms", "ellentuck", "N=4", "--max-reducts", "3"], 2),
    (["--help"], 0),
    (["no-such-command"], 3),
    (["canonize", "ellentuck", "N=5", "--front", "AU1", "--coloring", "random-kernel",
      "--seed", "7", "--oracle", "--out", "report.json"], 0),
    (["canonize", "ellentuck", "N=5", "--front", "AU1", "--coloring", "min"], 0),
    (["verify-axioms", "ellentuck", "N=4"], 0),
)


def test_no_state_crosses_calls_on_the_shared_parser(capsys, monkeypatch, tmp_path):
    here, there = tmp_path / "in-process", tmp_path / "one-shot"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    # help and usage wrap at the terminal width; pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    runs = []
    for argv, code in SHARED_PARSER_SEQUENCE:
        assert main(argv) == code
        runs.append(capsys.readouterr())
    assert os.listdir(here) == ["report.json"]
    assert (here / "report.json").read_text() == runs[3].out
    assert json.loads(runs[3].out)["result"]["oracle_agreement"]["agrees"] is True
    for captured in runs[4:]:
        rep = json.loads(captured.out)
        assert rep["config"] == config_to_json(DEFAULT_CONFIG)
    assert json.loads(runs[4].out)["result"]["oracle_agreement"] is None

    # each command alone in a fresh interpreter says the same, byte for byte
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    for (argv, code), captured in zip(SHARED_PARSER_SEQUENCE, runs):
        proc = subprocess.run(
            [sys.executable, "-m", "trspace.cli", *argv],
            cwd=there, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert (there / "report.json").read_bytes() == (here / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# er-number shares its completion rows between calls, not its search.

ER_SEQUENCE = (
    ["er-number", "2", "4", "--max-kernels", "1000"],
    ["er-number", "2", "4", "--max-kernels", "1000"],
    ["er-number", "2", "3"],
    ["er-number", "2", "4", "--max-kernels", "1000"],
)


def test_no_state_crosses_er_number_calls(capsys):
    golden = Path(__file__).resolve().parent / "golden"
    exits = json.loads((golden / "exits.json").read_text())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in ER_SEQUENCE:
        code = main(argv)
        captured = capsys.readouterr()
        slug = "-".join(a.lstrip("-") for a in argv)
        assert (code, captured.out) == (exits[slug], (golden / f"{slug}.json").read_text())
        proc = subprocess.run(
            [sys.executable, "-m", "trspace.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
