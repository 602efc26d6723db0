"""Concrete space instances: Ellentuck, block sequences (FIN), strong trees.

Each model gives the one-step extensions the reducts grow from inside
the full reduct (asked only while the reducts are enumerated), the
pairwise finitization order _leq_fin and its selectors. The engine reads
the order as rows and columns over the reduct ids, built from per-piece
reduct masks: Ellentuck and trees keep SpaceModel's atom containment,
and FIN builds both rows and columns from block splitting. Atoms are
plain ints; a block remembers the 1-based half-open interval of ground
levels it draws from, which is what the level-matching checks look at.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Optional

from .errors import ParameterError
from .model import Approx, Block, SpaceModel, block_key, interned_block, reduct_budget_error
from .reportio import is_int_list


# ---------------------------------------------------------------------------
# Ellentuck: atoms are naturals, level n holds the single atom n-1,
# approximations are finite increasing sets read as singleton blocks.

class EllentuckModel(SpaceModel):
    kind = "ellentuck"
    selectors = {**SpaceModel.selectors, "keep": lambda block: block.atoms}
    # Extensions carry a single atom, so no block properly contains
    # another and proper_combination keeps its default.

    def __init__(self, n_atoms: int):
        if n_atoms < 1:
            raise ParameterError("ellentuck instance needs at least one atom")
        super().__init__(([a] for a in range(n_atoms)), params={"N": n_atoms})

    def _leq_fin(self, s: Approx, t: Approx) -> bool:
        return s.atom_set() <= t.atom_set()

    def _extension_blocks(self, s: Approx) -> Iterable[Block]:
        floor = s.blocks[-1].atoms[0] if s.blocks else -1
        return (b for b in self.full.blocks if b.atoms[0] > floor)

    @classmethod
    def _fits(cls, params: dict, limit: int) -> bool:
        # A reduct is a nonempty subset of the N atoms, so there are
        # 2^N - 1 and they fit iff 2^N <= limit + 1, read off the bit
        # length without the N-bit power.
        return params["N"] < (limit + 1).bit_length()


# ---------------------------------------------------------------------------
# FIN block sequences: ground levels are the unit blocks, a block is the
# union of an increasing set of them, a reduct is a separated sequence.

class FinModel(SpaceModel):
    kind = "fin"
    selectors = {
        **SpaceModel.selectors,
        "min": lambda block: block.atoms[:1],
        "max": lambda block: block.atoms[-1:],
        "minmax": lambda block: (block.atoms[0], block.atoms[-1]),
        "identity": lambda block: block.atoms,
    }

    def __init__(self, levels: Iterable[Iterable[int]], span_cap: Optional[int] = None):
        lv = [list(l) for l in levels]
        if not lv:
            raise ParameterError("fin instance needs at least one ground block")
        if span_cap is not None and span_cap < 1:
            raise ParameterError("span cap must be at least 1")
        params = {"span_cap": span_cap} if span_cap is not None else {}
        self.span_cap = span_cap
        super().__init__(lv, params=params)
        self._level_of = {a: i for i, l in enumerate(self.levels) for a in l}
        self._ground: dict[Block, frozenset[int]] = {}
        self._block_masks: dict[Block, tuple[int, int, int]] = {}
        self._unions: dict[tuple[Block, ...], Block] = {}

    def ground_indices(self, block: Block) -> frozenset[int]:
        """0-based ground levels whose union is this block, read off the
        atoms' levels; every block of the instance is such a union."""
        try:
            return self._ground[block]
        except KeyError:
            hit = self._ground[block] = frozenset(map(self._level_of.__getitem__, block.atoms))
            return hit

    def _leq_fin(self, s: Approx, t: Approx) -> bool:
        t_idx = [self.ground_indices(b) for b in t.blocks]
        for sb in s.blocks:
            want = self.ground_indices(sb)
            got: set[int] = set()
            for ti in t_idx:
                if ti <= want:
                    got |= ti
            if got != want:
                return False
        return True

    # s <= t iff every block of s is a union of blocks of t: the pieces
    # are blocks, and a reduct holds a block that it splits.

    def _pieces(self, y: Approx):
        return y.blocks

    def _masks(self, block: Block) -> tuple[int, int, int]:
        """(split, inside, touch): bitsets of the reducts in which block
        is a union of their blocks (the AND over its ground levels of the
        OR of the masks of the blocks inside it that hold the level), that
        have a block containing block, and that have one meeting it."""
        hit = self._block_masks.get(block)
        if hit is None:
            want = self.ground_indices(block)
            held = dict.fromkeys(want, 0)
            inside = touch = 0
            for b, mask in self._piece_masks().items():
                got = self.ground_indices(b)
                if got <= want:
                    for g in got:
                        held[g] |= mask
                if not want.isdisjoint(got):
                    touch |= mask
                    if want <= got:
                        inside |= mask
            hit = self._block_masks[block] = (reduce(and_, held.values()), inside, touch)
        return hit

    def _reducts_above(self, s: Approx) -> int:
        # s <= y iff y splits every block of s.
        return reduce(and_, (self._masks(b)[0] for b in s.blocks), self._every_reduct())

    def _reducts_below(self, x: Approx) -> int:
        # y <= x iff y holds no ground level outside x, and each block of
        # x lies inside one block of y or meets none.
        column = self._every_reduct()
        for block in x.blocks:
            _, inside, touch = self._masks(block)
            column &= inside | ~touch
        used = set().union(*(self.ground_indices(b) for b in x.blocks))
        for g, ground in enumerate(self.full.blocks):
            if g not in used:
                column &= ~self._masks(ground)[2]
        return column

    def _extension_blocks(self, s: Approx) -> Iterable[Block]:
        # Blocks of the instance are separated and increasing, so the
        # ground levels past s start where the last block of s ends.
        start = s.blocks[-1].source[1] if s.blocks else 1
        pieces = self.full.blocks[start - 1:]
        # Each piece is one ground level, so a union of k pieces spans k
        # levels and keeps within the span cap exactly when k does.
        widest = len(pieces) if self.span_cap is None else min(len(pieces), self.span_cap)
        combos = itertools.chain.from_iterable(
            itertools.combinations(pieces, k) for k in range(2, widest + 1)
        )
        return itertools.chain(pieces, map(self._union, combos))

    def _union(self, combo: tuple[Block, ...]) -> Block:
        """The block joining two or more pieces, built once per instance.
        Interning already makes it one object per value; the memo is kept
        for speed, as it skips rebuilding and sorting the atoms."""
        hit = self._unions.get(combo)
        if hit is None:
            hit = self._unions[combo] = interned_block(
                (combo[0].source[0], combo[-1].source[1]),
                tuple(sorted(a for b in combo for a in b.atoms)),
            )
        return hit

    def proper_combination(self, block: Block, w: Block, s: Approx) -> bool:
        bi, wi = self.ground_indices(block), self.ground_indices(w)
        if not wi < bi:
            return False
        floor = max((max(self.ground_indices(sb)) for sb in s.blocks), default=-1)
        # The leftover ground levels always split into separated chain
        # pieces, so containment above the base segment is the whole test.
        return min(bi) > floor


# ---------------------------------------------------------------------------
# Strong subtrees of a complete b-ary tree. Nodes are numbered in level
# order; a block is the node set of one level of the subtree. A block's
# atoms fix its level, so atom containment implies the level test of
# _leq_fin and the order is SpaceModel's atom containment.

class TreeModel(SpaceModel):
    kind = "tree"
    # Per-node selectors are not expressible per level; the catalog
    # stays coarse and canonization reports it as limited.
    selectors = {**SpaceModel.selectors, "full": lambda block: block.atoms}
    family_limited = True

    def __init__(self, branching: int, height: int):
        if branching < 2:
            raise ParameterError("tree branching must be at least 2")
        if height < 1:
            raise ParameterError("tree height must be at least 1")
        # Count level by level, so a huge height stops at the cap.
        total, width = 0, 1
        for _ in range(height + 1):
            total, width = total + width, width * branching
            if total > 2000:
                raise ParameterError("tree instance exceeds the desk-scale budget of 2000 nodes")
        self.b = branching
        self.h = height
        levels = []
        for d in range(height + 1):
            start = (branching ** d - 1) // (branching - 1)
            levels.append(range(start, start + branching ** d))
        super().__init__(levels, params={"b": branching, "h": height})

    def _leq_fin(self, s: Approx, t: Approx) -> bool:
        # Both are strong subtrees of the instance, and ground strongness
        # plus containment is equivalent to strongness relative to t, so
        # the order reduces to levels and node sets.
        s_levels = {b.source for b in s.blocks}
        t_levels = {b.source for b in t.blocks}
        return s_levels <= t_levels and s.atom_set() <= t.atom_set()

    def _extension_blocks(self, s: Approx) -> Iterator[Block]:
        # A plain function returning a lazy iterator, so that a budget
        # stops it inside a run of hundreds of thousands of blocks.
        if not s.blocks:
            return (interned_block(xb.source, (u,)) for xb in self.full.blocks for u in xb.atoms)
        last = s.blocks[-1]
        d = last.source[0] - 1
        first = self.levels[d][0]

        def runs():
            for dl in range(d + 1, len(self.levels)):
                # Nodes are numbered in level order: child c of the i-th
                # node of level d is node k = i*b + c of level d+1, and
                # its descendants at depth dl are run k, of width
                # b^(dl-d-1), of level dl. The slots are increasing and
                # disjoint, so each pick is already sorted.
                level, width = self.levels[dl], self.b ** (dl - d - 1)
                slots = [
                    level[k * width:(k + 1) * width]
                    for u in last.atoms
                    for k in range((u - first) * self.b, (u - first + 1) * self.b)
                ]
                yield map(interned_block, itertools.repeat((dl + 1, dl + 2)), itertools.product(*slots))

        return itertools.chain.from_iterable(runs())

    def proper_combination(self, block: Block, w: Block, s: Approx) -> bool:
        if block.source != w.source:
            return False
        return set(w.atoms) < set(block.atoms)


# ---------------------------------------------------------------------------
# Builders and shared block machinery.

def build_ellentuck(n_atoms: int) -> EllentuckModel:
    return EllentuckModel(n_atoms)


def build_fin(
    n_blocks: Optional[int] = None,
    span_cap: Optional[int] = None,
    levels: Optional[Iterable[Iterable[int]]] = None,
) -> FinModel:
    if levels is None:
        if n_blocks is None or n_blocks < 1:
            raise ParameterError("fin instance needs a positive block count")
        levels = ([i] for i in range(n_blocks))
    return FinModel(levels, span_cap=span_cap)


def build_tree(branching: int, height: int) -> TreeModel:
    return TreeModel(branching, height)


def closure(model: SpaceModel, x: Approx) -> tuple[Block, ...]:
    """Every block that occurs in some reduct of x (for block sequences
    this is the span, the unions of ground blocks available inside x)."""
    seen: set[Block] = set()
    for y in model.sub_reducts(x):
        seen.update(y.blocks)
    return tuple(sorted(seen, key=block_key))


# ---------------------------------------------------------------------------
# Instance serialization.

# kind: (model class, builder, required params, optional params), the
# params in builder order. fin may give its levels in place of blocks.
_INSTANCE_KEYS = {
    "ellentuck": (EllentuckModel, build_ellentuck, ("N",), ()),
    "fin": (FinModel, build_fin, ("blocks",), ("span_cap",)),
    "tree": (TreeModel, build_tree, ("b", "h"), ()),
}


def instance_from_json(payload: dict, max_reducts: Optional[int] = None) -> SpaceModel:
    """Build an instance from {"instance": kind, "params": {...},
    "levels": [[atom, ...], ...]}, as instance_to_json writes it; levels
    may be left out, and must match the instance when given. Raises
    ParameterError on a malformed description. With max_reducts, an
    instance without levels that has more reducts by its closed-form
    count is refused (BudgetExceededError) before it is built."""
    if not (isinstance(payload, dict) and set(payload) <= {"instance", "params", "levels"}):
        raise ParameterError("an instance is an object with the keys instance, params and levels")
    kind, params, levels = (payload.get(k) for k in ("instance", "params", "levels"))
    if not isinstance(kind, str) or kind not in _INSTANCE_KEYS:
        raise ParameterError(f"unknown instance kind {kind!r}")
    space, builder, required, optional = _INSTANCE_KEYS[kind]
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ParameterError(f"{kind} params must be an object")
    for key, value in params.items():
        if key not in required + optional or type(value) is not int:
            raise ParameterError(f"unexpected {kind} parameter {key}={value!r}")
    if levels is not None and not (isinstance(levels, list) and all(is_int_list(l) for l in levels)):
        raise ParameterError("levels must be a list of lists of integer atoms")
    if kind == "fin" and levels is not None and "blocks" not in params:
        model = build_fin(levels=levels, span_cap=params.get("span_cap"))
    elif set(required) <= set(params):
        if max_reducts is not None and levels is None and not space._fits(params, max_reducts):
            raise reduct_budget_error(kind, max_reducts)
        model = builder(*(params.get(k) for k in required + optional))
    else:
        raise ParameterError(f"{kind} needs " + " ".join(f"{k}=<int>" for k in required))
    if levels is not None and [list(l) for l in model.levels] != levels:
        raise ParameterError(f"the levels do not match the {kind} parameters")
    return model
