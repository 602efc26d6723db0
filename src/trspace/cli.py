"""Command-line front end.

Builds instances from shorthand tokens or JSON files, runs the
checks and searches, and emits canonical JSON reports. Exit codes:
0 everything passed, 1 a mathematical finding or failure, 2 an
undecided verdict or exhausted budget, 3 a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .canonize import canonize, lemma_suite
from .errors import (
    BudgetExceededError,
    DomainError,
    InstanceMismatchError,
    ParameterError,
    SpaceError,
)
from .fronts import (
    Coloring,
    Front,
    coloring_from_json,
    front_from_json,
    front_to_json,
    generated_coloring,
)
from .mixing import MIXES, mixing_table, transitivity_check, weak_mixing_detect
from .model import Config, SpaceModel, check_axioms
from .ramsey import canonical_ramsey_number
from .reportio import canonical_json, config_to_json, report_envelope
from .spaces import build_ellentuck, build_fin, build_tree, instance_from_json

PASS, FINDING, UNDECIDED_EXIT, USAGE = 0, 1, 2, 3

_INSTANCE_KEYS = {
    "ellentuck": {"N"},
    "fin": {"blocks", "span_cap"},
    "tree": {"b", "h"},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; the exit-code
    contract reserves 2 for undecided verdicts, so remap to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _parse_instance(tokens: list[str], path: Optional[str]) -> SpaceModel:
    if path is not None:
        if tokens:
            raise ParameterError(
                "give either --instance or shorthand tokens, not both"
            )
        with open(path) as fh:
            return instance_from_json(json.load(fh))
    if not tokens:
        raise ParameterError(
            "no instance given; use e.g. 'ellentuck N=5', 'fin blocks=3"
            " span-cap=2', 'tree b=2 h=3' or a JSON path"
        )
    if len(tokens) == 1 and tokens[0].endswith(".json"):
        with open(tokens[0]) as fh:
            return instance_from_json(json.load(fh))
    kind = tokens[0]
    if kind not in _INSTANCE_KEYS:
        raise ParameterError(f"unknown instance kind {kind!r}")
    params: dict[str, int] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        key = key.replace("-", "_")
        if not sep or key not in _INSTANCE_KEYS[kind]:
            raise ParameterError(f"unexpected {kind} parameter {token!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParameterError(f"parameter {token!r} is not an integer")
    if kind == "ellentuck":
        if "N" not in params:
            raise ParameterError("ellentuck needs N=<atoms>")
        return build_ellentuck(params["N"])
    if kind == "fin":
        if "blocks" not in params:
            raise ParameterError("fin needs blocks=<count>")
        return build_fin(params["blocks"], span_cap=params.get("span_cap"))
    if "b" not in params or "h" not in params:
        raise ParameterError("tree needs b=<branching> h=<height>")
    return build_tree(params["b"], params["h"])


def _build_instance(args, config: Config) -> SpaceModel:
    model = _parse_instance(args.instance, args.instance_path)
    model.max_reducts = config.max_reducts
    return model


def _build_front(model: SpaceModel, label: Optional[str]) -> Front:
    if label is None:
        raise ParameterError("this command needs --front")
    if label.endswith(".json"):
        with open(label) as fh:
            return front_from_json(model, json.load(fh))
    hit = re.fullmatch(r"(AU|AX)_?(\d+)", label, flags=re.IGNORECASE)
    if hit is None:
        raise ParameterError(
            f"front {label!r} not understood; use AU<k>, AX<k> or a JSON path"
        )
    from .fronts import uniform_front

    return uniform_front(model, int(hit.group(2)))


def _build_coloring(
    model: SpaceModel, front: Front, name: Optional[str], seed: int
) -> Coloring:
    if name is None:
        raise ParameterError("this command needs --coloring")
    if name.endswith(".json"):
        with open(name) as fh:
            return coloring_from_json(model, json.load(fh))
    return generated_coloring(front, name, seed=seed)


def _config(args) -> Config:
    return Config(
        mu=args.mu,
        depth_budget=args.depth_budget,
        retries=args.retries,
        max_reducts=args.max_reducts,
        max_kernels=args.max_kernels,
        seed=args.seed,
    )


def _emit(payload: dict, out: Optional[str]) -> None:
    text = canonical_json(payload)
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_verify_axioms(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    reports = [check_axioms(model, a, config) for a in ("A1", "A2", "A3")]
    body = {"check": "verify_axioms", "reports": reports}
    _emit(report_envelope(model, body, config), args.out)
    verdicts = {r["verdict"] for r in reports}
    if "fail" in verdicts:
        return FINDING
    if "undecided" in verdicts:
        return UNDECIDED_EXIT
    return PASS


def _cmd_enumerate_front(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    body = {
        "check": "enumerate_front",
        "front": front_to_json(front),
        "count": len(front.members),
    }
    _emit(report_envelope(model, body, config), args.out)
    return PASS


def _cmd_mixing_table(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    coloring = _build_coloring(model, front, args.coloring, args.seed)
    table = mixing_table(model, coloring, config=config)
    trans = transitivity_check(table)
    body = {
        "check": "mixing_table",
        "table": table.to_json(),
        "transitivity": trans,
    }
    _emit(report_envelope(model, body, config), args.out)
    if trans["verdict"] == "fail" or trans["unequal_depth"]:
        return FINDING
    if table.undecided_pairs():
        return UNDECIDED_EXIT
    return PASS


def _cmd_transitivity(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    coloring = _build_coloring(model, front, args.coloring, args.seed)
    table = mixing_table(model, coloring, config=config)
    trans = transitivity_check(table)
    body = {"check": "transitivity", "report": trans}
    _emit(report_envelope(model, body, config), args.out)
    if trans["verdict"] == "fail" or trans["unequal_depth"]:
        return FINDING
    if table.undecided_pairs():
        return UNDECIDED_EXIT
    return PASS


def _cmd_weak_mixing(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    coloring = _build_coloring(model, front, args.coloring, args.seed)
    table = mixing_table(model, coloring, config=config)
    engine = table.engine
    witnesses = []
    scanned = 0
    for (i, j), verdict in sorted(table.verdicts.items()):
        if verdict.kind != MIXES or i == j:
            continue
        s, t = table.rows[i], table.rows[j]
        ds, dt = table.depths[i], table.depths[j]
        if ds == dt:
            continue
        if dt < ds:
            s, t = t, s
        scanned += 1
        hit = weak_mixing_detect(
            model, table.reduct, s, t, coloring, config, engine=engine
        )
        if hit is not None:
            witnesses.append(hit)
    body = {
        "check": "weak_mixing",
        "reduct": table.reduct,
        "pairs_scanned": scanned,
        "witnesses": witnesses,
    }
    _emit(report_envelope(model, body, config), args.out)
    if witnesses:
        return FINDING
    if table.undecided_pairs():
        return UNDECIDED_EXIT
    return PASS


def _cmd_canonize(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    coloring = _build_coloring(model, front, args.coloring, args.seed)
    report = canonize(model, coloring, config, oracle=args.oracle)
    body = {"check": "canonize", "result": report.to_json()}
    _emit(report_envelope(model, body, config), args.out)
    if report.verdict != "pass":
        return UNDECIDED_EXIT
    if args.oracle and not report.oracle_agreement["agrees"]:
        return FINDING
    return PASS


def _cmd_lemma_suite(args) -> int:
    config = _config(args)
    model = _build_instance(args, config)
    front = _build_front(model, args.front)
    coloring = _build_coloring(model, front, args.coloring, args.seed)
    report = canonize(model, coloring, config, oracle=False)
    if report.verdict != "pass":
        body = {"check": "lemma_suite", "canonize": report.to_json(), "suite": None}
        _emit(report_envelope(model, body, config), args.out)
        return UNDECIDED_EXIT
    suite = lemma_suite(model, coloring, report.witness, report.phi, config)
    body = {"check": "lemma_suite", "canonize": report.to_json(), "suite": suite}
    _emit(report_envelope(model, body, config), args.out)
    return PASS if suite["verdict"] == "pass" else FINDING


def _cmd_er_number(args) -> int:
    config = _config(args)
    try:
        value = canonical_ramsey_number(args.n, args.m, config)
    except BudgetExceededError as err:
        body = {
            "check": "er_number",
            "config": config_to_json(config),
            "n": args.n,
            "m": args.m,
            "verdict": "undecided",
            "largest_checked": err.largest_checked,
            "error": str(err),
        }
        _emit(body, args.out)
        return UNDECIDED_EXIT
    body = {
        "check": "er_number",
        "config": config_to_json(config),
        "n": args.n,
        "m": args.m,
        "value": value,
        "verdict": "pass",
    }
    _emit(body, args.out)
    return PASS


# ---------------------------------------------------------------------------
# Parser assembly.

def _add_shared(parser, instance=True, front=False, coloring=False, oracle=False):
    if instance:
        parser.add_argument(
            "instance", nargs="*",
            help="shorthand tokens (ellentuck N=5 | fin blocks=3 span-cap=2"
                 " | tree b=2 h=3) or a JSON path",
        )
        parser.add_argument(
            "--instance", dest="instance_path", default=None,
            help="instance JSON path (alternative to the shorthand)",
        )
    if front:
        parser.add_argument("--front", default=None,
                            help="AU<k>, AX<k> or a front JSON path")
    if coloring:
        parser.add_argument(
            "--coloring", default=None,
            help="generator name (constant, injective, min, max, union,"
                 " parity, minmax, identity, random-kernel) or a JSON path",
        )
    if oracle:
        parser.add_argument("--oracle", action="store_true",
                            help="cross-validate against the exhaustive oracle")
    parser.add_argument("--mu", type=int, default=1)
    parser.add_argument("--depth-budget", dest="depth_budget", type=int, default=None)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--max-reducts", dest="max_reducts", type=int, default=500_000)
    parser.add_argument("--max-kernels", dest="max_kernels", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the report here")


def _build_parser() -> _Parser:
    parser = _Parser(prog="trspace")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-axioms", help="check A1, A2, A3 on an instance")
    _add_shared(p)
    p.set_defaults(handler=_cmd_verify_axioms)

    p = sub.add_parser("enumerate-front", help="list the members of a front")
    _add_shared(p, front=True)
    p.set_defaults(handler=_cmd_enumerate_front)

    p = sub.add_parser("mixing-table",
                       help="pairwise mixing verdicts plus transitivity scan")
    _add_shared(p, front=True, coloring=True)
    p.set_defaults(handler=_cmd_mixing_table)

    p = sub.add_parser("transitivity", help="hunt mixing-transitivity failures")
    _add_shared(p, front=True, coloring=True)
    p.set_defaults(handler=_cmd_transitivity)

    p = sub.add_parser("weak-mixing",
                       help="scan mixed unequal-depth pairs for transfer blocks")
    _add_shared(p, front=True, coloring=True)
    p.set_defaults(handler=_cmd_weak_mixing)

    p = sub.add_parser("canonize", help="search a canonical inner map")
    _add_shared(p, front=True, coloring=True, oracle=True)
    p.set_defaults(handler=_cmd_canonize)

    p = sub.add_parser("lemma-suite",
                       help="canonize, then check the structure lemmas")
    _add_shared(p, front=True, coloring=True)
    p.set_defaults(handler=_cmd_lemma_suite)

    p = sub.add_parser("er-number",
                       help="canonical partition number by exhaustive search")
    p.add_argument("n", type=int, help="tuple arity")
    p.add_argument("m", type=int, help="target set size")
    _add_shared(p, instance=False)
    p.set_defaults(handler=_cmd_er_number)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits directly on --help and on bad subcommands; fold
        # that into the return-code contract so callers never see the exit
        return int(err.code or 0)
    try:
        return args.handler(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return UNDECIDED_EXIT
    except (ParameterError, DomainError, InstanceMismatchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except SpaceError as err:
        print(f"undecided: {err}", file=sys.stderr)
        return UNDECIDED_EXIT


if __name__ == "__main__":
    sys.exit(main())
