"""Acceptance battery.

Eight release gates, each printing one PASS/FAIL line. The batteries
build plain-data summaries so the final gate can re-run everything and
compare the serialized reports byte for byte.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from trspace import (
    EMPTY,
    GENERATORS,
    MixingEngine,
    build_ellentuck,
    build_fin,
    build_tree,
    canonical_json,
    canonical_ramsey_number,
    check_axioms,
    color_front,
    derive_seed,
    lemma_suite,
    mixing_table,
    pigeonhole_A4,
    transitivity_check,
    uniform_front,
    verify_canonical,
)
from conftest import (
    ELLENTUCK_GENERATORS,
    FIN_SELECTOR_COLORINGS,
    RANDOM_SEEDS,
    ellentuck_canonize_runs,
    fin_canonize_runs,
)
from helpers import fa, atoms_of

RANDOM_COLORINGS_PER_BASE = 200
FIN_EXPECTED_PHI = {
    "constant": ["drop"],
    "min": ["min"],
    "max": ["max"],
    "minmax": ["minmax"],
    "identity": ["identity"],
}


def _line(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def _short_bases(model):
    bases = [EMPTY]
    bases += [s for s in model.approximations() if 1 <= len(s) <= 2]
    return [s for s in bases if model.extensions(s, model.full)]


def _mono_after(model, s, witness, table) -> bool:
    return len({table[p] for p in model.extensions(s, witness)}) == 1


def axiom_battery() -> dict:
    models = (build_ellentuck(6), build_fin(4, span_cap=2), build_tree(2, 3))
    verdicts = [
        {"instance": m.instance_tag(), "axiom": ax, "verdict": check_axioms(m, ax)["verdict"]}
        for m in models
        for ax in ("A1", "A2", "A3")
    ]
    # Ellentuck: every two-coloring of the one-step extensions of every
    # segment of length at most two.
    e6 = models[0]
    failures = []
    colorings = 0
    for s in _short_bases(e6):
        exts = e6.extensions(s, e6.full)
        for bits in product((0, 1), repeat=len(exts)):
            table = dict(zip(exts, bits))
            witness = pigeonhole_A4(e6, s, e6.full, table.__getitem__)
            colorings += 1
            if not _mono_after(e6, s, witness, table):
                failures.append({"s": s.key, "bits": list(bits)})
    pigeonhole = {"ellentuck": {"colorings": colorings, "failures": failures}}
    # FIN and tree: seeded random batteries over the same bases.
    for model in models[1:]:
        tag = model.instance_tag()
        failures = []
        colorings = 0
        hist: dict[str, int] = {}
        for s in _short_bases(model):
            exts = model.extensions(s, model.full)
            for i in range(RANDOM_COLORINGS_PER_BASE):
                rng = random.Random(derive_seed("a4", tag, s.key, i))
                table = {p: rng.randrange(2) for p in exts}
                witness = pigeonhole_A4(model, s, model.full, table.__getitem__)
                colorings += 1
                hist[str(len(witness))] = hist.get(str(len(witness)), 0) + 1
                if not _mono_after(model, s, witness, table):
                    failures.append({"s": s.key, "seed_index": i})
        pigeonhole[tag] = {
            "colorings": colorings,
            "failures": failures,
            "witness_hist": hist,
        }
    return {"verdicts": verdicts, "pigeonhole": pigeonhole}


def er_battery() -> dict:
    return {str(m): canonical_ramsey_number(1, m) for m in (2, 3, 4)}


def canonize_battery(runs) -> dict:
    rows = [
        {
            "name": coloring.name,
            "verdict": report.verdict,
            "phi": list(report.phi.selectors),
            "witness": report.witness.key,
            "agrees": report.oracle_agreement["agrees"],
            "reverified": report.oracle_agreement["reverified"],
        }
        for coloring, report in runs
    ]
    return {"runs": rows, "disagreements": sum(1 for r in rows if not r["agrees"])}


def fin_battery(model, runs) -> dict:
    rows = []
    for coloring, report in runs:
        ok, _ = verify_canonical(model, report.witness, report.phi, coloring)
        rows.append(
            {
                "name": coloring.name,
                "phi": list(report.phi.selectors),
                "witness_levels": len(report.witness),
                "reverified": ok,
            }
        )
    return {"runs": rows}


def mixing_battery(e6, fin4, e6_tables) -> dict:
    front = uniform_front(fin4, 2)
    union = color_front(front, GENERATORS["union"], name="union")
    s, t, tp = fa((0,)), fa((0, 2)), fa((0, 1, 2))
    engine = MixingEngine(fin4, union)
    verdicts = {
        "s_t": engine.decide(fin4.full, s, t).kind,
        "s_tprime": engine.decide(fin4.full, s, tp).kind,
        "t_tprime": engine.decide(fin4.full, t, tp).kind,
    }
    report = transitivity_check(mixing_table(fin4, union))
    shape = {atoms_of(s), atoms_of(t), atoms_of(tp)}
    listed = [
        sorted(item["depths"])
        for item in report["unequal_depth"]
        if {atoms_of(item["s"]), atoms_of(item["t"]), atoms_of(item["tprime"])} == shape
    ]
    sweeps = []
    for label, model, tables in (("ellentuck", e6, e6_tables), ("fin", fin4, None)):
        for name in sorted(GENERATORS):
            if tables is not None:
                rep = transitivity_check(tables[name])
            else:
                coloring = color_front(uniform_front(model, 2), GENERATORS[name], name=name)
                rep = transitivity_check(mixing_table(model, coloring))
            sweeps.append(
                {
                    "instance": label,
                    "name": name,
                    "equal_depth": len(rep["equal_depth"]),
                    "verdict": rep["verdict"],
                }
            )
    return {
        "verdicts": verdicts,
        "triple_listed": sorted(listed),
        "equal_depth_sweeps": sweeps,
    }


def lemma_battery(e6, fin4, e_runs, f_runs) -> dict:
    rows = []
    for model, runs in ((e6, e_runs), (fin4, f_runs)):
        for coloring, report in runs:
            suite = lemma_suite(model, coloring, report.witness, report.phi)
            rows.append(
                {
                    "name": coloring.name,
                    "verdict": suite["verdict"],
                    "violations": sum(
                        len(body["violations"])
                        for body in suite.values()
                        if isinstance(body, dict)
                    ),
                }
            )
    return {"suites": rows}


def fusion_battery(e6_tables) -> dict:
    rows = [
        {
            "name": name,
            "undecided": len(table.undecided_pairs()),
            "reduct": table.reduct.key,
        }
        for name, table in sorted(e6_tables.items())
    ]
    return {"tables": rows}


def full_battery(e6, fin4, e_runs, f_runs) -> dict:
    front = uniform_front(e6, 2)
    e6_tables = {
        name: mixing_table(e6, color_front(front, GENERATORS[name], name=name))
        for name in GENERATORS
    }
    return {
        "axioms": axiom_battery(),
        "er_numbers": er_battery(),
        "ellentuck_canonize": canonize_battery(e_runs),
        "fin_canonize": fin_battery(fin4, f_runs),
        "mixing": mixing_battery(e6, fin4, e6_tables),
        "lemmas": lemma_battery(e6, fin4, e_runs, f_runs),
        "fusion": fusion_battery(e6_tables),
    }


@pytest.fixture(scope="session")
def battery(e6, fin4, ellentuck_runs, fin_runs):
    return full_battery(e6, fin4, ellentuck_runs, fin_runs)


def test_criterion_1_axioms(battery, capsys):
    data = battery["axioms"]
    ok = all(v["verdict"] == "pass" for v in data["verdicts"])
    total = 0
    for body in data["pigeonhole"].values():
        ok = ok and not body["failures"]
        total += body["colorings"]
    ok = ok and data["pigeonhole"]["ellentuck"]["colorings"] == 178 and total >= 178 + 400
    _line(capsys, 1, ok, f"A1-A3 on three instances, {total} pigeonhole colorings")
    assert ok, data


def test_criterion_2_er_numbers(battery, capsys):
    data = battery["er_numbers"]
    ok = all(data[str(m)] == (m - 1) ** 2 + 1 for m in (2, 3, 4))
    _line(capsys, 2, ok, f"unary canonical numbers {data}")
    assert ok, data


def test_criterion_3_ellentuck_oracle(battery, capsys):
    data = battery["ellentuck_canonize"]
    names = [r["name"] for r in data["runs"]]
    ok = (
        data["disagreements"] == 0
        and all(r["verdict"] == "pass" and r["reverified"] for r in data["runs"])
        and set(ELLENTUCK_GENERATORS) <= set(names)
        and len(data["runs"]) == len(ELLENTUCK_GENERATORS) + len(RANDOM_SEEDS)
    )
    _line(capsys, 3, ok, f"{len(data['runs'])} canonizations, 0 oracle disagreements")
    assert ok, data


def test_criterion_4_fin_forms(battery, capsys):
    data = battery["fin_canonize"]
    ok = len(data["runs"]) == len(FIN_SELECTOR_COLORINGS)
    for row in data["runs"]:
        ok = (
            ok
            and row["phi"] == FIN_EXPECTED_PHI[row["name"]]
            and row["witness_levels"] >= 2
            and row["reverified"]
        )
    _line(capsys, 4, ok, "all five selector classes recovered and reverified")
    assert ok, data


def test_criterion_5_mixing_counterexample(battery, capsys):
    data = battery["mixing"]
    ok = (
        data["verdicts"]["s_t"] == "mixes"
        and data["verdicts"]["s_tprime"] == "mixes"
        and data["verdicts"]["t_tprime"] == "separates"
        and data["triple_listed"]
        and all(row["equal_depth"] == 0 and row["verdict"] == "pass"
                for row in data["equal_depth_sweeps"])
    )
    _line(capsys, 5, ok, "non-transitive triple confined to unequal depths")
    assert ok, data


def test_criterion_6_lemma_suite(battery, capsys):
    data = battery["lemmas"]
    ok = all(row["verdict"] == "pass" and row["violations"] == 0 for row in data["suites"])
    _line(capsys, 6, ok, f"{len(data['suites'])} witnesses, 0 lemma violations")
    assert ok, data


def test_criterion_7_fusion(battery, capsys):
    data = battery["fusion"]
    ok = len(data["tables"]) == len(GENERATORS) and all(
        row["undecided"] == 0 for row in data["tables"]
    )
    _line(capsys, 7, ok, f"{len(data['tables'])} fused tables, 0 undecided pairs")
    assert ok, data


def test_criterion_8_determinism(battery, capsys):
    e6 = build_ellentuck(6)
    fin4 = build_fin(4)
    fresh = full_battery(e6, fin4, ellentuck_canonize_runs(e6), fin_canonize_runs(fin4))
    ok = canonical_json(fresh) == canonical_json(battery)
    _line(capsys, 8, ok, "full re-run serialized byte-identically")
    assert ok
