"""Shared instances and cached canonization batches."""

from __future__ import annotations

import pytest
from hypothesis import settings

from trspace import (
    GENERATORS,
    build_ellentuck,
    build_fin,
    build_tree,
    canonize,
    color_front,
    generated_coloring,
    uniform_front,
)

ELLENTUCK_GENERATORS = ("constant", "injective", "min", "max")
FIN_SELECTOR_COLORINGS = ("constant", "min", "max", "minmax", "identity")
RANDOM_SEEDS = tuple(range(100))

# A failing draw prints its @reproduce_failure line. Example counts,
# deadlines and randomization stay at Hypothesis' defaults or at each
# test's own settings.
settings.register_profile("trspace", print_blob=True)
settings.load_profile("trspace")


@pytest.fixture(scope="session")
def e5():
    return build_ellentuck(5)


@pytest.fixture(scope="session")
def e6():
    return build_ellentuck(6)


@pytest.fixture(scope="session")
def fin3():
    return build_fin(3)


@pytest.fixture(scope="session")
def fin4():
    return build_fin(4)


@pytest.fixture(scope="session")
def fin4cap2():
    return build_fin(4, span_cap=2)


@pytest.fixture(scope="session")
def tree22():
    return build_tree(2, 2)


@pytest.fixture(scope="session")
def tree23():
    return build_tree(2, 3)


def ellentuck_canonize_runs(model):
    """Oracle-checked canonizations on the rank-2 front: the four named
    generators plus one hundred seeded random kernels."""
    front = uniform_front(model, 2)
    runs = []
    for name in ELLENTUCK_GENERATORS:
        coloring = color_front(front, GENERATORS[name], name=name)
        runs.append((coloring, canonize(model, coloring, oracle=True)))
    for seed in RANDOM_SEEDS:
        coloring = generated_coloring(front, "random-kernel", seed=seed)
        runs.append((coloring, canonize(model, coloring, oracle=True)))
    return runs


def fin_canonize_runs(model):
    """Oracle-checked canonizations of the selector-shaped colorings on
    the rank-1 block front."""
    front = uniform_front(model, 1)
    runs = []
    for name in FIN_SELECTOR_COLORINGS:
        coloring = color_front(front, GENERATORS[name], name=name)
        runs.append((coloring, canonize(model, coloring, oracle=True)))
    return runs


@pytest.fixture(scope="session")
def ellentuck_runs(e6):
    return ellentuck_canonize_runs(e6)


@pytest.fixture(scope="session")
def fin_runs(fin4):
    return fin_canonize_runs(fin4)
