"""Command-line front end.

Builds instances from shorthand tokens or --instance JSON files, runs the
checks and searches, and emits canonical JSON reports. Exit codes:
0 everything passed, 1 a mathematical finding or failure, 2 an
undecided verdict or exhausted budget, 3 a usage or input error.

Only errors, model and reportio load with this module; spaces, fronts,
mixing, canonize and ramsey are imported inside the functions that
build a command's inputs and run it, so a command loads only its own
layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from .errors import (
    BudgetExceededError,
    DomainError,
    InstanceMismatchError,
    ParameterError,
    SpaceError,
)
from .model import DEFAULT_CONFIG, Config, SpaceModel, check_axioms
from .reportio import canonical_json, config_to_json, report_envelope

if TYPE_CHECKING:
    from .fronts import Coloring, Front

PASS, FINDING, UNDECIDED_EXIT, USAGE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; the exit-code
    contract reserves 2 for undecided verdicts, so remap to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    """The JSON document in a file; an unreadable file is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:  # bad JSON or UTF-8, too deep
        raise ParameterError(f"cannot read {path}: {err}") from err


def _parse_instance(tokens: list[str], path: Optional[str], max_reducts: int) -> SpaceModel:
    """The instance of --instance PATH or of shorthand tokens, both built
    by instance_from_json, which refuses one over max_reducts by its
    closed-form count before building it."""
    from .spaces import instance_from_json

    if path is not None and tokens:
        raise ParameterError(
            "give either --instance or shorthand tokens, not both"
        )
    if path is not None:
        return instance_from_json(_load_json(path), max_reducts)
    if not tokens:
        raise ParameterError(
            "no instance given; use e.g. 'ellentuck N=5', 'fin blocks=3"
            " span_cap=2', 'tree b=2 h=3' or --instance PATH"
        )
    params: dict[str, int] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or key in params:
            raise ParameterError(f"parameter {token!r} is not key=value or repeats a key")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParameterError(f"parameter {token!r} is not an integer")
    return instance_from_json({"instance": tokens[0], "params": params}, max_reducts)


def _build_front(model: SpaceModel, label: Optional[str]) -> Front:
    from .fronts import front_from_json, uniform_front

    if label is None:
        raise ParameterError("this command needs --front")
    if label.endswith(".json"):
        return front_from_json(model, _load_json(label))
    hit = re.fullmatch(r"AU(0|[1-9][0-9]*)", label)
    if hit is None:
        raise ParameterError(
            f"front {label!r} not understood; use AU<k> or a JSON path"
        )
    return uniform_front(model, int(hit.group(1)))


def _build_coloring(model: SpaceModel, args, seed: int) -> Coloring:
    """A generated coloring of --front, or a JSON coloring with its own front."""
    from .fronts import coloring_from_json, generated_coloring

    name = args.coloring
    if name is None:
        raise ParameterError("this command needs --coloring")
    if not name.endswith(".json"):
        return generated_coloring(_build_front(model, args.front), name, seed=seed)
    if args.front is not None:
        raise ParameterError(
            f"--coloring {name} carries its own front; drop --front {args.front}"
        )
    return coloring_from_json(model, _load_json(name))


def _config(args) -> Config:
    """The command's Config flags; DEFAULT_CONFIG fills the fields it does not read."""
    return replace(DEFAULT_CONFIG, **{name: getattr(args, name) for name in args.flags})


def _emit(payload: dict, out: Optional[str]) -> None:
    """The report to --out first, then to stdout, so a --out that cannot
    be written leaves stdout empty under exit 3."""
    text = canonical_json(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _exit_code(finding, undecided) -> int:
    return FINDING if finding else UNDECIDED_EXIT if undecided else PASS


# ---------------------------------------------------------------------------
# Commands. Each run takes the parsed arguments, the config, the instance
# and the front and coloring its inputs name (None otherwise), and returns
# the report body and the exit code.

def _verify_axioms(args, config, model, front, coloring):
    reports = [check_axioms(model, a, config) for a in ("A1", "A2", "A3")]
    verdicts = {r["verdict"] for r in reports}
    body = {"check": "verify_axioms", "reports": reports}
    return body, _exit_code("fail" in verdicts, "undecided" in verdicts)


def _enumerate_front(args, config, model, front, coloring):
    # front_to_json's text, with the Front's own approximations in it
    body = {
        "check": "enumerate_front",
        "front": {
            "instance": front.instance, "scope": front.scope, "anchor": front.anchor,
            "members": front.members, "flags": front.flags,
        },
        "count": len(front.members),
    }
    return body, PASS


def _mixing(args, config, model, front, coloring):
    """mixing-table reports the table and its audit, transitivity the audit alone."""
    from .mixing import mixing_table, transitivity_check

    table = mixing_table(model, coloring, config=config)
    trans = transitivity_check(table)
    if args.command == "mixing-table":
        body = {"check": "mixing_table", "table": table.to_json(), "transitivity": trans}
    else:
        body = {"check": "transitivity", "report": trans}
    finding = trans["verdict"] == "fail" or trans["unequal_depth"]
    return body, _exit_code(finding, table.undecided_pairs())


def _weak_mixing(args, config, model, front, coloring):
    from .mixing import MIXES, mixing_table, weak_mixing_detect

    table = mixing_table(model, coloring, config=config)
    witnesses = []
    scanned = 0
    for (i, j), verdict in sorted(table.verdicts.items()):
        if verdict.kind != MIXES or table.depths[i] == table.depths[j]:
            continue
        s, t = table.rows[i], table.rows[j]
        if table.depths[j] < table.depths[i]:
            s, t = t, s
        scanned += 1
        hit = weak_mixing_detect(
            model, table.reduct, s, t, coloring, config, engine=table.engine
        )
        if hit is not None:
            witnesses.append(hit)
    body = {
        "check": "weak_mixing",
        "reduct": table.reduct,
        "pairs_scanned": scanned,
        "witnesses": witnesses,
    }
    return body, _exit_code(witnesses, table.undecided_pairs())


def _canonize(args, config, model, front, coloring):
    from .canonize import canonize

    report = canonize(model, coloring, config, oracle=args.oracle)
    body = {"check": "canonize", "result": report.to_json()}
    if report.verdict != "pass":
        return body, UNDECIDED_EXIT
    return body, FINDING if args.oracle and not report.oracle_agreement["agrees"] else PASS


def _lemma_suite(args, config, model, front, coloring):
    from .canonize import canonize, lemma_suite

    report = canonize(model, coloring, config, oracle=False)
    body = {"check": "lemma_suite", "canonize": report.to_json(), "suite": None}
    if report.verdict != "pass":
        return body, UNDECIDED_EXIT
    body["suite"] = lemma_suite(model, coloring, report.witness, report.phi, config)
    return body, PASS if body["suite"]["verdict"] == "pass" else FINDING


def _er_number(args, config, model, front, coloring):
    from .ramsey import canonical_ramsey_number

    body = {"check": "er_number", "config": config_to_json(config), "n": args.n, "m": args.m}
    try:
        body["value"] = canonical_ramsey_number(args.n, args.m, config)
    except BudgetExceededError as err:
        body.update(verdict="undecided", largest_checked=err.largest_checked, error=str(err))
        return body, UNDECIDED_EXIT
    body["verdict"] = "pass"
    return body, PASS


_COLORED = ("instance", "front", "coloring")
# The Config fields a mixing run reads; seed only under random-kernel.
_MIXING_FLAGS = ("mu", "depth_budget", "max_reducts", "seed")

# (name, help, inputs needed, Config flags, run). The inputs name the
# arguments a command takes beyond the Config flags and --out:
# "instance", "front", "coloring", "oracle", or "arity" (the n and m of
# er-number). The flags are the Config fields the run reads; the others
# come from DEFAULT_CONFIG and are not options of the command.
COMMANDS = (
    ("verify-axioms", "check A1, A2, A3 on an instance", ("instance",), ("max_reducts",),
     _verify_axioms),
    ("enumerate-front", "list the members of a front", ("instance", "front"),
     ("max_reducts",), _enumerate_front),
    ("mixing-table", "pairwise mixing verdicts plus transitivity scan", _COLORED,
     _MIXING_FLAGS, _mixing),
    ("transitivity", "hunt mixing-transitivity failures", _COLORED, _MIXING_FLAGS, _mixing),
    ("weak-mixing", "scan mixed unequal-depth pairs for transfer blocks", _COLORED,
     _MIXING_FLAGS, _weak_mixing),
    ("canonize", "search a canonical inner map", _COLORED + ("oracle",),
     ("mu", "depth_budget", "max_reducts", "max_kernels", "seed"), _canonize),
    ("lemma-suite", "canonize, then check the structure lemmas", _COLORED,
     ("mu", "depth_budget", "max_reducts", "seed"), _lemma_suite),
    ("er-number", "canonical partition number by exhaustive search", ("arity",),
     ("max_kernels",), _er_number),
)


def _run(args) -> int:
    """Config, instance and its reduct budget, front or coloring, then
    the command's run; the report goes to stdout (and --out)."""
    config = _config(args)
    model = front = coloring = None
    if "instance" in args.inputs:
        model = _parse_instance(args.instance, args.instance_path, config.max_reducts)
        model.all_reducts(config.max_reducts)
    if "coloring" in args.inputs:
        coloring = _build_coloring(model, args, config.seed)
        front = coloring.front
    elif "front" in args.inputs:
        front = _build_front(model, args.front)
    body, code = args.run(args, config, model, front, coloring)
    _emit(body if model is None else report_envelope(model, body, config), args.out)
    return code


# ---------------------------------------------------------------------------
# Parser assembly.

def _add_arguments(parser, inputs: tuple[str, ...], flags: tuple[str, ...]) -> None:
    if "arity" in inputs:
        parser.add_argument("n", type=int, help="tuple arity")
        parser.add_argument("m", type=int, help="target set size")
    if "instance" in inputs:
        parser.add_argument(
            "instance", nargs="*",
            help="shorthand tokens (ellentuck N=5 | fin blocks=3 span_cap=2"
                 " | tree b=2 h=3)",
        )
        parser.add_argument(
            "--instance", dest="instance_path", default=None, metavar="PATH",
            help="instance JSON path (instead of the shorthand)",
        )
    if "front" in inputs:
        parser.add_argument("--front", default=None,
                            help="AU<k> or a front JSON path")
    if "coloring" in inputs:
        parser.add_argument(
            "--coloring", default=None,
            help="generator name (constant, injective, min, max, union,"
                 " parity, minmax, identity, random-kernel) or a JSON path;"
                 " a JSON coloring carries its own front",
        )
    if "oracle" in inputs:
        parser.add_argument("--oracle", action="store_true",
                            help="cross-validate against the exhaustive oracle")
    for name in flags:  # --mu, --depth-budget, ..., --seed
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=int,
                            default=getattr(DEFAULT_CONFIG, name))
    parser.add_argument("--out", default=None, help="also write the report here")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later one:
    parse_args leaves it unchanged and returns a fresh namespace, its
    defaults are immutable, and errors and --help look up sys.stdout and
    sys.stderr when they print."""
    parser = _Parser(prog="trspace", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, text, inputs, flags, run in COMMANDS:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        _add_arguments(p, inputs, flags)
        p.set_defaults(inputs=inputs, flags=flags, run=run)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one trspace command and return its exit code; callable any
    number of times in one process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits directly on --help and on bad subcommands; fold
        # that into the return-code contract so callers never see the exit
        return int(err.code or 0)
    try:
        return _run(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return UNDECIDED_EXIT
    except (ParameterError, DomainError, InstanceMismatchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except SpaceError as err:
        print(f"undecided: {err}", file=sys.stderr)
        return UNDECIDED_EXIT
    except MemoryError:
        print("out of memory: memory ran out before any budget stopped the command", file=sys.stderr)
        return UNDECIDED_EXIT


if __name__ == "__main__":
    sys.exit(main())
