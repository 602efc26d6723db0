"""Finite-truncation engine for topological Ramsey spaces.

Concrete instances (the Ellentuck space, block sequences, strong
subtrees) are modeled as finite towers of approximations; on top of
that sit the structural axiom checks, front enumeration, mixing and
separation analysis for colorings, fusion, canonization by inner
maps with an exhaustive oracle, and canonical partition numbers.

The public names load lazily: `_EXPORTS` maps each home module to the
names it exports, and the first read of a name imports its home module
(PEP 562), so a run loads only the layers it uses.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BudgetExceededError", "DomainError", "FusionExhaustedError",
        "InstanceMismatchError", "NoInnerWitnessError", "ParameterError",
        "SpaceError", "TruncationTooShallowError",
    ),
    "model": (
        "DEFAULT_CONFIG", "EMPTY", "Approx", "Block", "Config", "PropertyOracle",
        "SpaceModel", "a4star_search", "approx_sort_key", "check_axioms", "derive_seed",
        "fuse", "instance_to_json", "pigeonhole_A4", "witness_sort_key",
    ),
    "spaces": (
        "EllentuckModel", "FinModel", "TreeModel", "build_ellentuck", "build_fin",
        "build_tree", "closure", "instance_from_json",
    ),
    "fronts": (
        "GENERATORS", "Coloring", "Front", "FrontTable", "color_front", "coloring_from_json",
        "coloring_to_json", "front_from_json", "front_table", "front_to_json",
        "generated_coloring", "hat", "is_front", "restrict_front", "subfront", "uniform_front",
    ),
    "mixing": (
        "MIXES", "SEPARATES", "UNDECIDED", "MixingEngine", "MixingTable", "Verdict",
        "mixing_table", "transitivity_check", "weak_mixing_detect",
    ),
    "canonize": (
        "CanonReport", "InnerMap", "avoidance_check", "canonize", "eval_inner",
        "lemma_suite", "maximality_check", "oracle_agreement", "oracle_canonize",
        "property_p_check", "verify_canonical",
    ),
    "ramsey": ("canonical_ramsey_number", "restricted_growth_strings"),
    "reportio": (
        "approx_from_json", "approx_to_json", "block_from_json", "block_to_json",
        "canonical_json", "report_envelope", "to_jsonable",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name's home module on its first read and bind the
    name here, so later reads are plain lookups."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


class _Package(ModuleType):
    """Importing a submodule binds it on the package; `canonize` is both
    a submodule and an exported function, so a submodule never binds
    over an exported name, whichever is imported first."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
