"""Golden library reports: the axiom reports of the injected defects and
the property-P probe, byte for byte.

The A1-A3 reports of every defective model (the two that reach A.2
clause 3 on Ellentuck N=3, the rest on N=4) and the property-P probes
are serialized with `canonical_json` and compared with the files in
`tests/golden/reports/`. They pin the witnesses that the relation layer
and the mixing engine name, which the CLI goldens never reach. When a
report changes on purpose, re-record with

    PYTHONPATH=src python tests/test_report_golden.py [CASE ...]

and review the diff of `tests/golden/reports/`. Named cases re-record
only those (an unknown case is an error); with none, every case is
rewritten.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from trspace import (
    build_ellentuck,
    build_fin,
    canonical_json,
    check_axioms,
    generated_coloring,
    property_p_check,
    uniform_front,
)
from test_relation_layer import CLAUSE3_DEFECTS, DEFECTS

GOLDEN = Path(__file__).parent / "golden" / "reports"


def _property_p(model, rank, name):
    return property_p_check(model, generated_coloring(uniform_front(model, rank), name))


CASES = {
    **{
        f"{name}-{axiom}": (lambda cls=cls, axiom=axiom: check_axioms(cls(4), axiom))
        for name, cls in DEFECTS.items()
        for axiom in ("A1", "A2", "A3")
    },
    **{
        f"{name}-{axiom}": (lambda cls=cls, axiom=axiom: check_axioms(cls(3), axiom))
        for name, cls in CLAUSE3_DEFECTS.items()
        for axiom in ("A1", "A2", "A3")
    },
    "property-p-ellentuck-N-6-AU2-min": lambda: _property_p(build_ellentuck(6), 2, "min"),
    "property-p-fin-blocks-4-AU1-min": lambda: _property_p(build_fin(4), 1, "min"),
    "property-p-ellentuck-N-5-AU2-max": lambda: _property_p(build_ellentuck(5), 2, "max"),
    # AU3 reaches two edges of the A.4* search: under min it asks about
    # an extension outside the hat, so some pairs are skipped; under max
    # an extension that mixes with none of its base's extensions at the
    # deciding reduct is its own class.
    "property-p-ellentuck-N-5-AU3-min": lambda: _property_p(build_ellentuck(5), 3, "min"),
    "property-p-ellentuck-N-5-AU3-max": lambda: _property_p(build_ellentuck(5), 3, "max"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_library_report(case):
    assert canonical_json(CASES[case]()) == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    import sys

    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown:
        sys.exit(f"unknown report case(s): {' '.join(unknown)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(canonical_json(CASES[case]()))
