"""The four workloads: their inputs, their jobs and how answers are checked.

Each `setup_*` function takes the freshly imported `trspace` package and
the workload seed, makes every seeded input with the benchmark's own
random generator, and returns one round of jobs. A run repeats the round.
Job closures look engine functions up on the package at call time, so
the tracer's wrappers are seen.

Where a round has few distinct jobs (colorings, cli, ramsey), it has an
odd multiple of five of them, and their costs are spaced apart at the
middle and at nine tenths. The median and the 90th percentile then fall
mid-way through one job's latencies, not on the edge between two, where
noise would flip them from one job to the other.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    # JSON-safe projection of the result that references are compared on
    answer: Callable[[object], object]
    # independent check of the result: a message when it is wrong
    check: Callable[[object], Optional[str]] = lambda out: None
    # True when the inputs come from the workload seed
    seeded: bool = False
    # reference comparison; equality unless a job is allowed to do better
    compare: Callable[[object, object], bool] = lambda ref, got: ref == got


# ---------------------------------------------------------------------------
# Shared helpers.

# Report fields that carry the answer. Everything else (stats, configs,
# instance descriptions, reasons) may grow or change without the answer
# changing, so a projection keeps only these.
ANSWER_KEYS = frozenset({
    "verdict", "witness", "phi", "value", "largest_checked", "reduct",
    "count", "members", "agrees", "reverified", "w", "s", "t", "tprime",
    "i", "j", "pairs_scanned", "rows", "exit",
})
SKIPPED_KEYS = frozenset({"stats", "config", "instance"})


def project(obj):
    """Keep the answer-bearing fields of a JSON report, at any depth."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key in ANSWER_KEYS:
                out[key] = value
            elif key not in SKIPPED_KEYS and isinstance(value, (dict, list)):
                kept = project(value)
                if kept:
                    out[key] = kept
        return out
    if isinstance(obj, list):
        kept = [project(v) for v in obj if isinstance(v, (dict, list))]
        return kept if any(kept) else []
    return obj


def normalize(obj):
    """JSON round trip, so answers compare equal to loaded references."""
    return json.loads(json.dumps(obj))


def build(lib, spec: str):
    """Instance from CLI-style tokens, e.g. 'fin blocks=5 span_cap=2'."""
    kind, *params = spec.split()
    kw = {k: int(v) for k, v in (p.split("=") for p in params)}
    if kind == "ellentuck":
        return lib.build_ellentuck(kw["N"])
    if kind == "fin":
        return lib.build_fin(kw["blocks"], span_cap=kw.get("span_cap"))
    return lib.build_tree(kw["b"], kw["h"])


def random_colors(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random kernel on n members, drawn like the engine's
    random-kernel generator (a class count, then a class per member),
    except that the count is at least two: one class is the constant
    generator, whose cost would swamp the seed-to-seed comparison."""
    k = rng.randint(2, max(2, n))
    return tuple(rng.randrange(k) for _ in range(n))


def _seeded_rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _shuffled(groups: list[list[Job]], seed: int, workload: str) -> list[Job]:
    """Seeded order of job groups; a group's jobs stay in order because
    later ones consume the result of earlier ones."""
    _seeded_rng(seed, workload, "order").shuffle(groups)
    return [job for group in groups for job in group]


def _key(approx) -> list:
    return normalize(approx.key)


# ---------------------------------------------------------------------------
# axioms: every job builds its instance from cold.

AXIOM_INSTANCES = (
    "ellentuck N=6",
    "ellentuck N=7",
    "fin blocks=4 span_cap=2",
    "fin blocks=5 span_cap=2",
    "fin blocks=5",
    "tree b=2 h=3",
    "tree b=3 h=2",
)
# Each short base gets A4_JOBS_PER_BASE batteries of A4_TABLES_PER_JOB
# tables. Splitting keeps the 21 axiom checks under a tenth of the jobs,
# so the 90th percentile lies among the many A4 batteries.
A4_JOBS_PER_BASE = 2
A4_TABLES_PER_JOB = 2


def _axiom_job(lib, spec: str, axiom: str) -> Job:
    def run():
        return lib.check_axioms(build(lib, spec), axiom)

    def check(report):
        if report["verdict"] != "pass":
            return f"{axiom} on {spec} returned {report['verdict']}"
        return None

    return Job(
        id=f"{axiom}:{spec}",
        run=run,
        answer=lambda report: project(lib.to_jsonable(report)),
        check=check,
    )


def _a4_job(lib, spec: str, job_id: str, base, tables: list[dict], checker) -> Job:
    """One pigeonhole battery: a base segment and seeded two-colorings of
    its one-step extensions, run on a freshly built instance."""

    def run():
        model = build(lib, spec)
        return [
            lib.pigeonhole_A4(model, base, model.full, table.__getitem__)
            for table in tables
        ]

    def check(witnesses):
        n = len(base)
        for table, w in zip(tables, witnesses):
            if not (checker.leq_fin(w, checker.full) and w.blocks[:n] == base.blocks):
                return f"{job_id}: witness is not in [s, x]"
            exts = checker.extensions(base, w)
            if not exts or len({table[p] for p in exts}) != 1:
                return f"{job_id}: witness is not monochromatic"
        return None

    return Job(
        id=job_id,
        run=run,
        answer=lambda witnesses: [_key(w) for w in witnesses],
        check=check,
        seeded=True,
    )


def setup_axioms(lib, seed: int) -> list[Job]:
    groups = []
    for spec in AXIOM_INSTANCES:
        for axiom in ("A1", "A2", "A3"):
            groups.append([_axiom_job(lib, spec, axiom)])
        # The short bases of acceptance criterion 1: the empty segment and
        # every segment of one or two blocks that still has extensions.
        checker = build(lib, spec)
        bases = [lib.EMPTY] + [s for s in checker.approximations() if 1 <= len(s) <= 2]
        bases = [s for s in bases if checker.extensions(s, checker.full)]
        for index, base in enumerate(bases):
            exts = checker.extensions(base, checker.full)
            for part in range(A4_JOBS_PER_BASE):
                rng = _seeded_rng(seed, "a4", spec, index, part)
                tables = [
                    {p: rng.randrange(2) for p in exts}
                    for _ in range(A4_TABLES_PER_JOB)
                ]
                job_id = f"A4:{spec}:base{index}.{part}"
                groups.append([_a4_job(lib, spec, job_id, base, tables, checker)])
    return _shuffled(groups, seed, "axioms")


# ---------------------------------------------------------------------------
# colorings: instances, fronts and colorings are built once and shared.

# (instance, front rank, named generators, seeded random kernels, whether
# to scan for weak mixing). Every named generator on the rank-2 front of
# fin blocks=5 takes over a second to canonize, so that front gets random
# kernels only. Rank-1 fronts have no pairs at unequal depths to scan,
# and the rank-3 front is left out of that scan to keep the round at 55
# jobs: 42 canonize and lemma jobs for 21 colorings, 8 mixing, 5 weak.
COLORING_SETS = (
    ("ellentuck N=6", 2, ("min",), 2, True),
    ("ellentuck N=6", 3, ("max",), 2, False),
    ("fin blocks=4", 1, ("minmax",), 1, False),
    ("fin blocks=4", 2, ("min",), 2, True),
    ("fin blocks=5", 1, ("max",), 1, False),
    ("fin blocks=5", 2, (), 2, True),
    ("fin blocks=5 span_cap=2", 2, ("minmax",), 2, True),
    ("tree b=2 h=3", 2, ("min",), 2, True),
)


def _canonize_jobs(lib, model, checker, coloring, label: str, seeded: bool) -> list[Job]:
    """canonize with the oracle, then the lemma suite on its result."""
    state: dict = {}

    def canon():
        state["report"] = lib.canonize(model, coloring, oracle=True)
        return state["report"]

    def check_canon(report):
        agreement = report.oracle_agreement or {}
        if report.verdict != "pass":
            return f"canonize {label} returned {report.verdict}"
        if not (agreement.get("agrees") and agreement.get("reverified")):
            return f"canonize {label} disagrees with the oracle"
        ok, _ = lib.verify_canonical(checker, report.witness, report.phi, coloring)
        return None if ok else f"canonize {label} witness does not verify"

    def lemma():
        report = state["report"]
        return lib.lemma_suite(model, coloring, report.witness, report.phi)

    def check_lemma(suite):
        return None if suite["verdict"] == "pass" else f"lemma suite {label} failed"

    return [
        Job(f"canonize:{label}", canon, lambda r: project(r.to_json()), check_canon, seeded),
        Job(f"lemma:{label}", lemma, lambda s: project(lib.to_jsonable(s)), check_lemma, seeded),
    ]


def _mixing_jobs(lib, model, coloring, label: str, seeded: bool) -> list[Job]:
    """mixing_table plus transitivity_check, then weak_mixing_detect over
    the table's mixed pairs at unequal depths."""
    state: dict = {}

    def mixing():
        table = lib.mixing_table(model, coloring)
        state["table"] = table
        return table, lib.transitivity_check(table)

    def check_mixing(out):
        table, trans = out
        if table.undecided_pairs():
            return f"mixing table {label} has undecided pairs"
        if trans["verdict"] != "pass":
            return f"equal-depth transitivity fails on {label}"
        return None

    def weak():
        table = state["table"]
        hits = []
        for (i, j), verdict in sorted(table.verdicts.items()):
            if verdict.kind != lib.MIXES or i == j or table.depths[i] == table.depths[j]:
                continue
            s, t = table.rows[i], table.rows[j]
            if table.depths[j] < table.depths[i]:
                s, t = t, s
            hit = lib.weak_mixing_detect(
                model, table.reduct, s, t, coloring, engine=table.engine
            )
            hits.append((i, j, hit))
        return hits

    def weak_answer(hits):
        return [[i, j, None if hit is None else _key(hit["w"])] for i, j, hit in hits]

    return [
        Job(f"mixing:{label}", mixing,
            lambda out: project(lib.to_jsonable({"table": out[0].to_json(), "transitivity": out[1]})),
            check_mixing, seeded),
        Job(f"weak:{label}", weak, weak_answer, seeded=seeded),
    ]


def setup_colorings(lib, seed: int) -> list[Job]:
    models: dict[str, object] = {}
    checkers: dict[str, object] = {}
    groups = []
    for spec, rank, names, kernels, weak in COLORING_SETS:
        if spec not in models:
            models[spec] = build(lib, spec)
            models[spec].all_reducts()
            checkers[spec] = build(lib, spec)
        model, checker = models[spec], checkers[spec]
        front = lib.uniform_front(model, rank)
        colorings = [(lib.color_front(front, lib.GENERATORS[n], name=n), n, False) for n in names]
        for k in range(kernels):
            rng = _seeded_rng(seed, "kernel", spec, rank, k)
            colors = random_colors(rng, len(front.members))
            colorings.append((lib.Coloring(front, colors, name=f"rk{k}"), f"rk{k}", True))
        for coloring, name, seeded in colorings:
            label = f"{spec}:AU{rank}:{name}"
            groups.append(_canonize_jobs(lib, model, checker, coloring, label, seeded))
        coloring, name, seeded = colorings[0]
        jobs = _mixing_jobs(lib, model, coloring, f"{spec}:AU{rank}:{name}", seeded)
        groups.append(jobs if weak else jobs[:1])
    return _shuffled(groups, seed, "colorings")


# ---------------------------------------------------------------------------
# cli: one trspace command per job, in process, stdout captured.

# (arguments, expected exit code). Exit 1 from mixing-table, transitivity
# and weak-mixing is the expected finding (non-transitive triples and
# weak-mixing witnesses at unequal depths), not a failure.
CLI_COMMANDS = (
    ("verify-axioms ellentuck N=5", 0),
    ("enumerate-front tree b=2 h=3 --front AU2", 0),
    ("mixing-table fin blocks=3 --coloring union --front AU2", 1),
    ("transitivity fin blocks=3 --coloring union --front AU2", 1),
    ("weak-mixing fin blocks=4 --coloring min --front AU2", 1),
    ("canonize ellentuck N=6 --front AU2 --coloring min --oracle", 0),
    ("canonize fin blocks=4 --front AU1 --coloring minmax --oracle", 0),
    ("lemma-suite ellentuck N=6 --front AU2 --coloring max", 0),
    ("lemma-suite fin blocks=4 --front AU2 --coloring min", 0),
    ("verify-axioms fin blocks=3", 0),
    ("verify-axioms ellentuck N=6", 0),
    ("er-number 1 4", 0),
    ("er-number 2 3", 0),
)
# random-kernel colorings; each gets a generated --seed. They are small
# instances, so their seed-dependent cost stays below the median command.
CLI_SEEDED = (
    ("canonize fin blocks=3 --front AU2 --coloring random-kernel --oracle", 0),
    ("canonize tree b=2 h=2 --front AU2 --coloring random-kernel --oracle", 0),
)


def _cli_option(argv: list[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _cli_job(lib, cli, argv: list[str], expected_exit: int, job_id: str, seeded: bool) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def answer(out):
        code, text = out
        return {"exit": code, "report": project(json.loads(text))}

    def check(out):
        code, text = out
        if code != expected_exit:
            return f"{job_id} exited {code}, expected {expected_exit}"
        report = json.loads(text)
        command = argv[0]
        if command == "er-number" and argv[1] == "1":
            m = int(argv[2])
            if report.get("value") != (m - 1) ** 2 + 1:
                return f"{job_id} gave {report.get('value')}, expected {(m - 1) ** 2 + 1}"
        if command == "canonize":
            result = report["result"]
            if not result["oracle_agreement"]["agrees"]:
                return f"{job_id} disagrees with the oracle"
            # re-run verification on the reported witness, independently
            spec = " ".join(argv[1:argv.index("--front")])
            model = build(lib, spec)
            front = lib.uniform_front(model, int(_cli_option(argv, "--front")[2:]))
            seed_arg = _cli_option(argv, "--seed")
            coloring = lib.generated_coloring(
                front, _cli_option(argv, "--coloring"),
                seed=int(seed_arg) if seed_arg is not None else 0,
            )
            witness = lib.approx_from_json(result["witness"])
            ok, _ = lib.verify_canonical(model, witness, lib.InnerMap(tuple(result["phi"])), coloring)
            if not ok:
                return f"{job_id} witness does not verify"
        return None

    return Job(job_id, run, answer, check, seeded)


def setup_cli(lib, seed: int) -> list[Job]:
    import importlib

    cli = importlib.import_module(lib.__name__ + ".cli")
    groups = [
        [_cli_job(lib, cli, line.split(), code, line, False)]
        for line, code in CLI_COMMANDS
    ]
    rng = _seeded_rng(seed, "cli")
    for index, (line, code) in enumerate(CLI_SEEDED):
        argv = line.split() + ["--seed", str(rng.randrange(2 ** 31))]
        groups.append([_cli_job(lib, cli, argv, code, f"{line} #{index}", True)])
    return _shuffled(groups, seed, "cli")


# ---------------------------------------------------------------------------
# ramsey: canonical Ramsey numbers, exact and under a kernel budget.

RAMSEY_EXACT = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 3))
# Each pair at two or three budgets, spread so that the cost per kernel
# shows and the round has 15 jobs.
RAMSEY_BUDGET = (
    (1, 5, 15_000), (1, 5, 50_000), (1, 5, 200_000),
    (2, 4, 1_000), (2, 4, 5_000), (2, 4, 10_000),
    (3, 4, 300), (3, 4, 5_000), (3, 4, 10_000),
)


def _ramsey_job(lib, n: int, m: int, budget: Optional[int]) -> Job:
    config = lib.Config(max_kernels=budget) if budget else lib.DEFAULT_CONFIG

    def run():
        try:
            return {"value": lib.canonical_ramsey_number(n, m, config)}
        except lib.BudgetExceededError as err:
            return {"largest_checked": err.largest_checked}

    def check(out):
        if budget is None and "value" not in out:
            return f"ER({n},{m}) stopped without a value"
        if n == 1 and "value" in out and out["value"] != (m - 1) ** 2 + 1:
            return f"ER(1,{m}) = {out['value']}, expected {(m - 1) ** 2 + 1}"
        return None

    def compare(ref, got):
        # A budget stop passes when it got at least as far as the
        # reference, or when it finished with a value past that point
        # (arity one is checked against the closed form by `check`).
        if budget is None or "largest_checked" not in ref:
            return ref == got
        if "value" in got:
            return got["value"] > ref["largest_checked"]
        return (got["largest_checked"] or 0) >= (ref["largest_checked"] or 0)

    job_id = f"ER({n},{m})" + (f"@{budget}" if budget else "")
    return Job(job_id, run, lambda out: out, check, compare=compare)


def setup_ramsey(lib, seed: int) -> list[Job]:
    groups = [[_ramsey_job(lib, n, m, None)] for n, m in RAMSEY_EXACT]
    groups += [[_ramsey_job(lib, n, m, b)] for n, m, b in RAMSEY_BUDGET]
    return _shuffled(groups, seed, "ramsey")


WORKLOADS = {
    "axioms": setup_axioms,
    "colorings": setup_colorings,
    "cli": setup_cli,
    "ramsey": setup_ramsey,
}
