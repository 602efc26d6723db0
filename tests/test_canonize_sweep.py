"""Every kernel of the small fronts, canonized against the oracle.

Each coloring of a front is one restricted growth string over its
members. Every one of them, on every front below with at most 7 members,
is canonized with the oracle: the witness must verify and agree with
the oracle, and lemma_suite on it must pass and equal the plain pair
scans of reference_lemma_suite byte for byte. The witnesses shorter than
the oracle's largest are counted per front; a change to that count is a
change to canonize's quality and is recorded here on purpose.
"""

from __future__ import annotations

import pytest

from trspace import (
    Coloring,
    build_ellentuck,
    build_fin,
    build_tree,
    canonical_json,
    canonize,
    lemma_suite,
    restricted_growth_strings,
    uniform_front,
)
from helpers import reference_lemma_suite

INSTANCES = {
    "e4": lambda: build_ellentuck(4),
    "e5": lambda: build_ellentuck(5),
    "e6": lambda: build_ellentuck(6),
    "fin3": lambda: build_fin(3),
    "tree22": lambda: build_tree(2, 2),  # b=2, h=2
}

# (instance, rank): (kernels, witnesses short of the oracle's largest);
# 3,173 kernels and 91 short witnesses in all.
SWEEP = {
    ("e4", 1): (15, 1),
    ("e4", 2): (203, 30),
    ("e4", 3): (15, 0),
    ("e5", 1): (52, 5),
    ("e6", 1): (203, 11),
    ("fin3", 1): (877, 5),
    ("fin3", 2): (52, 0),
    ("fin3", 3): (1, 0),
    ("tree22", 1): (877, 39),
    ("tree22", 2): (877, 0),
    ("tree22", 3): (1, 0),
}


@pytest.mark.parametrize("name, rank", sorted(SWEEP))
def test_every_kernel_canonizes_and_passes_the_lemmas(name, rank):
    model = INSTANCES[name]()
    front = uniform_front(model, rank)
    kernels = short = 0
    for colors in restricted_growth_strings(len(front.members)):
        coloring = Coloring(front, colors)
        report = canonize(model, coloring, oracle=True)
        assert report.verdict == "pass", colors
        assert report.oracle_agreement["reverified"], colors
        assert report.oracle_agreement["agrees"], colors
        suite = lemma_suite(model, coloring, report.witness, report.phi)
        assert suite["verdict"] == "pass", colors
        reference = reference_lemma_suite(model, coloring, report.witness, report.phi)
        assert canonical_json(suite) == canonical_json(reference), colors
        kernels += 1
        short += not report.stats["witness_is_max_size"]
    assert (kernels, short) == SWEEP[(name, rank)]
