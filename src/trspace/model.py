"""Finite-truncation data model for topological Ramsey spaces.

A space instance is a SpaceModel built over a finite ground space, an
ordered list of levels of atoms. Reducts (finite stand-ins for the
infinite members) and their initial segments share one representation:
an Approx, a sequence of blocks, each block tagged with the half-open
interval of ground levels it draws from. Every search in this package
iterates in the documented total order (block key = (source, atoms),
approximation key = tuple of block keys), so each reported witness is
the least one and reruns are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import threading
import weakref
from _weakref import _remove_dead_weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from operator import and_, attrgetter, or_
from typing import Callable, Iterable, Optional

from .errors import (
    BudgetExceededError,
    DomainError,
    FusionExhaustedError,
    ParameterError,
    TruncationTooShallowError,
)


# ---- interning -----------------------------------------------------------
# Each Block and Approx value has one live object, so both hash by
# identity at C level, and Approx compares by identity. A table maps
# each value to a weak reference to its object; the reference's callback
# drops the entry only while it is still dead, as WeakValueDictionary's
# does, so an object no one holds goes with its entry, and a value
# entered again in the meantime keeps its new one.
_INTERN_LOCK = threading.Lock()


class _Entry(weakref.ref):
    """A table's weak reference to an interned object, with its key.
    weakref.KeyedRef is the same, but its Python-level __init__ makes
    each new entry dearer than the object it refers to."""

    __slots__ = ("key",)


def _intern_table() -> tuple[dict, Callable]:
    table: dict = {}

    def drop(ref: _Entry) -> None:
        _remove_dead_weakref(table, ref.key)

    return table, drop


_BLOCKS, _drop_block = _intern_table()
_APPROXES, _drop_approx = _intern_table()


def _enter(table: dict, drop: Callable, key, obj):
    """The live object for key, obj when there is none. The entry is
    made under the lock, so two threads never make two objects for one
    value."""
    ref = _Entry(obj, drop)
    ref.key = key
    _INTERN_LOCK.acquire()  # cheaper than a with statement
    try:
        held = table.setdefault(key, ref)
        if held is not ref:
            live = held()
            if live is not None:
                return live
            table[key] = ref
    finally:
        _INTERN_LOCK.release()
    return obj


@dataclass(frozen=True, order=True, init=False)
class Block:
    """One block of an approximation, the one live object of its value.

    atoms: strictly increasing atom ids.
    source: half-open 1-based interval [k, l) of ground levels the block
    was assembled from. Dataclass order and equality compare values and
    give the documented block key (source first, then atoms); the hash is
    the identity's, since equal blocks are one object.
    """

    source: tuple[int, int]
    atoms: tuple[int, ...]

    __hash__ = object.__hash__

    def __new__(cls, source: tuple[int, int], atoms: tuple[int, ...]) -> "Block":
        key = (source, atoms)
        ref = _BLOCKS.get(key)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        if not atoms:
            raise ParameterError("a block needs at least one atom")
        if list(atoms) != sorted(set(atoms)):
            raise ParameterError("block atoms must be strictly increasing")
        k, l = source
        if not (1 <= k < l):
            raise ParameterError("block source must be a nonempty 1-based interval")
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["source"], fields["atoms"] = source, atoms
        return _enter(_BLOCKS, _drop_block, key, obj)

    def __reduce__(self):
        # copy, deepcopy and pickle go through the constructor.
        return (Block, (self.source, self.atoms))

    @property
    def key(self) -> tuple[tuple[int, int], tuple[int, ...]]:
        return (self.source, self.atoms)


def interned_block(source: tuple[int, int], atoms: tuple[int, ...]) -> Block:
    """Block(source=source, atoms=atoms), read off the intern table here:
    the constructor, with its checks, runs only for a block no one holds."""
    ref = _BLOCKS.get((source, atoms))
    block = None if ref is None else ref()
    return Block(source=source, atoms=atoms) if block is None else block


@dataclass(frozen=True, eq=False, init=False)
class Approx:
    """A finite approximation: a (possibly empty) sequence of blocks.

    Each value is one live object, so equality and the hash are the
    identity's.
    """

    blocks: tuple[Block, ...] = ()

    def __new__(cls, blocks: tuple[Block, ...] = ()) -> "Approx":
        ref = _APPROXES.get(blocks)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        obj = object.__new__(cls)
        obj.__dict__["blocks"] = blocks
        return _enter(_APPROXES, _drop_approx, blocks, obj)

    def __reduce__(self):
        return (Approx, (self.blocks,))

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def key(self) -> tuple:
        return tuple(map(block_key, self.blocks))

    def atom_set(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out.update(b.atoms)
        return frozenset(out)

    def extend(self, block: Block) -> "Approx":
        return Approx(self.blocks + (block,))


EMPTY = Approx()

# The documented block key, read at C level; Block's dataclass order is
# the same order through Python-level comparisons.
block_key = attrgetter("source", "atoms")


def approx_sort_key(s: Approx) -> tuple:
    # Shorter approximations first, then block keys; total and stable.
    return (len(s.blocks), s.key)


def witness_sort_key(s: Approx) -> tuple:
    # Preference order for witnesses: larger first, ties by least key.
    return (-len(s.blocks), s.key)


def longest_first(reducts: Iterable[Approx]) -> list[Approx]:
    # witness_sort_key order of reducts given in id order (length, then
    # key): the sort by length is stable, so each length keeps key order.
    return sorted(reducts, key=len, reverse=True)


@dataclass(frozen=True)
class Config:
    """Knobs shared by the checkers and the canonization pipeline."""

    mu: int = 1                      # admissibility threshold for quantifier pools
    depth_budget: Optional[int] = None
    max_reducts: int = 500_000       # enumeration guard for a single instance
    # Ramsey numbers: colors tried at a tuple (arity one spends none);
    # oracle_canonize: (reduct, map) candidates
    max_kernels: int = 2_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # booleans are not integers here
            if type(value) is not int and (name, value) != ("depth_budget", None):
                raise ParameterError(f"{name} must be an integer")
        if self.mu < 1:
            raise ParameterError("mu must be at least 1")
        if self.max_reducts < 1 or self.max_kernels < 1:
            raise ParameterError("enumeration budgets must be positive")
        if self.depth_budget is not None and self.depth_budget < 1:
            raise ParameterError("depth budget must be positive when set")


DEFAULT_CONFIG = Config()


def reduct_budget_error(kind: str, limit: int) -> BudgetExceededError:
    """The refusal of an instance with more than limit reducts."""
    return BudgetExceededError(
        f"reduct enumeration of the {kind} instance passed the max_reducts budget of {limit}"
    )


def derive_seed(*parts) -> int:
    """Stable RNG seed from structured parts (never Python hash())."""
    blob = json.dumps([str(p) for p in parts], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class SpaceModel(ABC):
    """A finite truncation of one topological Ramsey space.

    The full reduct has one block per ground level, and the reducts are
    what one-step extensions grow from EMPTY inside it; their initial
    segments are the approximations of the instance. Subclasses supply
    the one-step extensions _extension_blocks, which depend on a parent
    only through its last block and which only the enumeration asks,
    the selectors table and the pairwise finitization
    order _leq_fin, the reference the engine never calls. The engine
    reads the order as bitsets over the reduct ids, the reducts above
    and below an approximation (_reducts_above, _reducts_below), built
    from per-piece reduct masks (_pieces, _piece_masks). By default s <= y iff y holds every piece of s, with
    atoms for pieces; a space with another order overrides both
    directions. The relation is stored only as lazily filled lines, rows
    (up_mask) and columns (sub_mask), and leq_fin reads one bit of a row.

    Every store is per instance and filled on first use: the reducts in
    documented order with their ids and child runs, the approximations,
    the piece masks, the rows and columns, the answers of prefix_mask
    (and, for a model that overrides restrict, its per-length tables),
    the segments of each reduct, per (s, x) the A.4 candidate ranking
    (a4_ranking), the instance tag, and per front the table that
    fronts.front_table builds (front_tables).
    """

    kind: str = "abstract"

    def __init__(self, levels: Iterable[Iterable[int]], params: Optional[dict] = None):
        lv = tuple(tuple(sorted(set(l))) for l in levels)
        if not lv:
            raise ParameterError("a space needs at least one ground level")
        seen: set[int] = set()
        for l in lv:
            if not l:
                raise ParameterError("ground levels must be nonempty")
            if seen.intersection(l):
                raise ParameterError("ground levels must be pairwise disjoint")
            seen.update(l)
        self.levels = lv
        self.params: dict = dict(params or {})
        self._reducts: Optional[tuple[Approx, ...]] = None
        # Line bits: reduct i is all_reducts()[i], bit i + 1 of each line.
        self._ids: Optional[dict[Approx, int]] = None
        # Child runs: the children of the approximation with line bit j
        # are the reducts with ids _starts[j] up to _starts[j + 1].
        self._starts: Optional[list[int]] = None
        self._approxes: Optional[tuple[Approx, ...]] = None
        # The relation's only stores, each filled on first use: per piece
        # the reducts having it; the lines of _line, approximations above
        # s (rows) and below x (columns); per s the reducts with prefix s;
        # and, only under an overridden restrict, per segment length n the
        # reducts grouped by their length-n segment.
        self._masks_by_piece: Optional[dict] = None
        self._rows: dict[Approx, int] = {}
        self._columns: dict[Approx, int] = {}
        self._prefix_masks: dict[Approx, int] = {}
        self._restrict_tables: dict[int, dict[Approx, int]] = {}
        self._segments: dict[Approx, tuple[Approx, ...]] = {}
        self._a4_rankings: dict[tuple[Approx, Approx], tuple] = {}
        self._tag: Optional[str] = None
        self._front_tables: dict = {}
        # The maximal reduct (the truncated space itself).
        self.full = Approx(tuple(
            Block(source=(i + 1, i + 2), atoms=l) for i, l in enumerate(lv)
        ))

    # ---- per-space structure -------------------------------------------

    @abstractmethod
    def _leq_fin(self, s: Approx, t: Approx) -> bool:
        """s is a finite reduction of t (both are approximations of the
        instance: EMPTY or reducts). The pairwise definition, kept as the
        reference that the rows and columns are tested against; the
        engine reads only those."""

    @abstractmethod
    def _extension_blocks(self, s: Approx) -> Iterable[Block]:
        """Blocks b with s.extend(b) a reduct, in any order; a lazy
        iterable lets a budget stop the enumeration early. They depend on
        s only through its last block (none for EMPTY). Asked only by
        the enumeration, once per distinct last block of a parent s,
        which is EMPTY or a reduct."""

    def _pieces(self, y: Approx):
        """The pieces of reduct y that _piece_masks indexes the reducts by."""
        return (a for b in y.blocks for a in b.atoms)

    def _reducts_above(self, s: Approx) -> int:
        """Bitset of the reducts y with s <= y; s is EMPTY or a reduct."""
        masks = self._piece_masks()
        return reduce(and_, (masks[piece] for piece in self._pieces(s)), self._every_reduct())

    def _reducts_below(self, x: Approx) -> int:
        """Bitset of the reducts y <= x; x is EMPTY or a reduct."""
        inside = set(self._pieces(x))
        outside = [mask for piece, mask in self._piece_masks().items() if piece not in inside]
        return self._every_reduct() & ~reduce(or_, outside, 0)

    # Inner selector catalog, a block's selected atoms by name, drop
    # first; spaces add their entries and canonize tries them in order.
    selectors: dict[str, Callable[[Block], tuple[int, ...]]] = {"drop": lambda block: ()}
    # The catalog cannot express every canonical map of the space.
    family_limited: bool = False

    def selector_names(self) -> tuple[str, ...]:
        return tuple(self.selectors)

    def apply_selector(self, name: str, block: Block) -> tuple[int, ...]:
        select = self.selectors.get(name)
        if select is None:
            raise DomainError(f"unknown selector {name!r} for {self.kind}")
        return select(block)

    def proper_combination(self, block: Block, w: Block, s: Approx) -> bool:
        """block properly contains w and combines it with material past s;
        never, unless the space builds blocks out of several pieces."""
        return False

    # ---- shared operations ---------------------------------------------

    def restrict(self, x: Approx, n: int) -> Approx:
        if n < 0 or n > len(x):
            raise DomainError(f"restriction length {n} out of range 0..{len(x)}")
        if n == len(x):
            return x
        return Approx(x.blocks[:n])

    def _keeps(self, *hooks: str) -> bool:
        """Whether the model reads every named hook as SpaceModel defines
        it, overridden neither on its class nor on the instance."""
        return all(getattr(getattr(self, h), "__func__", None) is getattr(SpaceModel, h) for h in hooks)

    def _bit(self, a: Approx) -> Optional[int]:
        """a's bit in the lines: 0 for EMPTY, i + 1 for reduct i; None
        when a is no approximation of the instance."""
        if not a.blocks:
            return 0
        if self._ids is None:
            self._ids = {y: i for i, y in enumerate(self.all_reducts(), 1)}
        return self._ids.get(a)

    def _every_reduct(self) -> int:
        """Bitset of all reducts."""
        return (1 << len(self.all_reducts())) - 1

    def _piece_masks(self) -> dict:
        """Per piece of some reduct, the bitset of the reducts having it,
        filled in one pass over the reducts on first use."""
        if self._masks_by_piece is None:
            masks: dict = {}
            for i, y in enumerate(self.all_reducts()):
                bit = 1 << i
                for piece in self._pieces(y):
                    masks[piece] = masks.get(piece, 0) | bit
            self._masks_by_piece = masks
        return self._masks_by_piece

    def _line(self, a: Approx, up: bool) -> int:
        """The approximations above a (up) or below it, a being EMPTY or
        a reduct, as a bitset: bit 0 for EMPTY, bit i + 1 for reduct i.
        EMPTY lies below every approximation and nothing else lies below
        EMPTY, in every space. Every read of the relation goes through
        here, so a subclass that flips bits of the lines changes leq_fin,
        up_mask, sub_mask and the axiom checks alike."""
        if up:
            return self._reducts_above(a) << 1 | (not a.blocks)
        return self._reducts_below(a) << 1 | 1

    def _row(self, s: Approx) -> int:
        """The line above s, filled on first use; 0 when s is no
        approximation."""
        hit = self._rows.get(s)
        if hit is None:
            hit = self._rows[s] = 0 if self._bit(s) is None else self._line(s, True)
        return hit

    def _column(self, x: Approx) -> int:
        """The line below x, filled on first use; 0 when x is no
        approximation."""
        hit = self._columns.get(x)
        if hit is None:
            hit = self._columns[x] = 0 if self._bit(x) is None else self._line(x, False)
        return hit

    def leq_fin(self, s: Approx, t: Approx) -> bool:
        """s is a finite reduction of t: t's bit in the row of s. False
        unless both are approximations of the instance (EMPTY or a
        reduct)."""
        j = self._bit(t)
        return j is not None and bool(self._row(s) >> j & 1)

    def segments(self, x: Approx) -> tuple[Approx, ...]:
        """restrict(x, n) for n = 0..len(x), through the model's own restrict.

        Approximations are interned, so a segment that is a reduct is the
        stored reduct and an empty one is EMPTY.
        """
        hit = self._segments.get(x)
        if hit is None:
            hit = self._segments[x] = tuple(self.restrict(x, n) for n in range(len(x) + 1))
        return hit

    def depth(self, x: Approx, s: Approx):
        """Least k with s a reduction of restrict(x, k), read off the
        row of s at the segments of x; math.inf if none."""
        row = self._row(s)
        for k, seg in enumerate(self.segments(x)):
            j = self._bit(seg)
            if j is not None and row >> j & 1:
                return k
        return math.inf

    def extension_blocks(self, s: Approx, x: Approx) -> tuple[Block, ...]:
        """The last blocks of extensions(s, x), in the same order."""
        return tuple(c.blocks[-1] for c in self.extensions(s, x))

    def extensions(self, s: Approx, x: Approx) -> tuple[Approx, ...]:
        """The one-block extensions of s inside x: the stored children of
        s whose row has x's bit, in documented order; () unless s <= x."""
        if not self.leq_fin(s, x):
            return ()
        reds, i, j, rows = self.all_reducts(), self._bit(s), self._bit(x), self._rows
        children = reds[self._starts[i]:self._starts[i + 1]]
        return tuple(c for c in children if (rows.get(c) or self._row(c)) >> j & 1)

    def all_reducts(self, budget: Optional[int] = None) -> tuple[Approx, ...]:
        """Every reduct in documented order. BudgetExceededError when there
        are more than budget, by a closed-form count or by an enumeration
        now or before; with no budget, a first enumeration is held to the
        default and a stored tuple is returned as is. Entry points taking a
        Config pass its max_reducts."""
        limit = DEFAULT_CONFIG.max_reducts if budget is None else budget
        reds = self._reducts
        if reds is None:
            if self._fits(self.params, limit):  # refuses before enumerating
                reds = tuple(self._enumerate_reducts(limit))
        elif budget is None:
            return reds
        if reds is None or len(reds) > limit:
            raise reduct_budget_error(self.kind, limit)
        if self._reducts is None:
            self._reducts = reds
        return self._reducts

    @classmethod
    def _fits(cls, params: dict, limit: int) -> bool:
        """Whether an instance with these parameters can have at most
        limit reducts: False only where the space's closed form says it
        has more. instance_from_json asks it before the build and
        all_reducts before the enumeration."""
        return True

    def _enumerate_reducts(self, budget: Optional[int] = None) -> list[Approx]:
        """Every nonempty reduct in documented order: the closure of EMPTY
        under the one-step extensions inside the full reduct.

        The parents are taken in order, EMPTY first, and each appends its
        children, its blocks in block-key order, as one run of ids that
        _starts records. key(s + b) is key(s) + (key(b),), so the children
        of ordered parents come out ordered, one length after another.
        With a budget the walk stops once it holds more than budget, and
        draws no parent's lazy hook past budget + 1 reducts; a reused run
        is appended whole, so the walk may stop holding more. The hook is
        asked once per last block (None for EMPTY): a later parent with
        the same last block reuses the sorted run, and a run cut short
        by the budget ends the walk, so it is never reused. Each child
        is parent.extend(b), read off the intern table here: the
        constructor runs only for a child no one holds.
        """
        reds: list[Approx] = []
        starts = self._starts = [0]
        runs: dict[Optional[Block], list[Block]] = {}
        parent, done = EMPTY, 0
        held = _APPROXES.get
        limit = math.inf if budget is None else budget
        while True:
            head = parent.blocks
            last = head[-1] if head else None
            run = runs.get(last)
            if run is None:
                room = None if budget is None else budget + 1 - len(reds)
                blocks = itertools.islice(self._extension_blocks(parent), room)
                run = runs[last] = sorted(blocks, key=block_key)
            for b in run:
                key = head + (b,)
                ref = held(key)
                child = None if ref is None else ref()
                reds.append(Approx(key) if child is None else child)
            total = len(reds)
            starts.append(total)
            if done == total or total > limit:
                return reds
            parent, done = reds[done], done + 1

    def reducts_in(self, mask: int) -> tuple[Approx, ...]:
        """The reducts whose bits are set, in documented order."""
        reds = self.all_reducts()
        return tuple(reds[i] for i in _bits(mask))

    def below(self, approxes: Iterable[Approx], x: Approx) -> tuple[Approx, ...]:
        """The given approximations s <= x, in their order, read off x's
        bit in the row of each s. Nothing lies below what is no
        approximation."""
        j = self._bit(x)
        if j is None:
            return ()
        return tuple(s for s in approxes if self._row(s) >> j & 1)

    def sub_mask(self, x: Approx) -> int:
        """Bitset of the reducts y <= x, the column of x."""
        return self._column(x) >> 1

    def up_mask(self, s: Approx) -> int:
        """Bitset of the reducts y >= s, the reducts realizing s: the row
        of s, the transpose of sub_mask."""
        return self._row(s) >> 1

    def prefix_mask(self, s: Approx) -> int:
        """Bitset of the reducts y with restrict(y, len(s)) == s, kept
        per s.

        These are s and its descendants, one run of ids per generation
        read off the child runs, so no restrict is called. A model that
        overrides restrict (on its class or on the instance) is read
        through it instead: one pass per length fills the masks of every
        segment of that length, calling restrict once per reduct rather
        than building every segment with segments().
        """
        hit = self._prefix_masks.get(s)
        if hit is None:
            if self._keeps("restrict"):
                hit = self._prefix_runs(s)
            else:
                hit = self._restrict_table(len(s)).get(s, 0)
            self._prefix_masks[s] = hit
        return hit

    def _prefix_runs(self, s: Approx) -> int:
        """prefix_mask(s): s's own id (EMPTY has none), then the children
        of each run, until a run is empty."""
        j = self._bit(s)
        if j is None:
            return 0
        self.all_reducts()
        starts = self._starts
        mask, lo, hi = (1 << j) >> 1, j - 1, j
        while lo < hi:
            lo, hi = starts[lo + 1], starts[hi + 1]
            mask |= (1 << hi) - (1 << lo)
        return mask

    def _restrict_table(self, n: int) -> dict[Approx, int]:
        """Per length-n segment, through the model's own restrict, the
        bitset of the reducts having it."""
        table = self._restrict_tables.get(n)
        if table is None:
            table = self._restrict_tables[n] = {}
            for i, y in enumerate(self.all_reducts()):
                if len(y) >= n:
                    seg = self.restrict(y, n)
                    table[seg] = table.get(seg, 0) | 1 << i
        return table

    def sub_reducts(self, x: Approx) -> tuple[Approx, ...]:
        """All reducts y <= x, including x itself, in documented order."""
        return self.reducts_in(self.sub_mask(x))

    def between(self, x: Approx, y: Approx) -> tuple[Approx, ...]:
        """All reducts z with x <= z <= y, in documented order."""
        return self.reducts_in(self.up_mask(x) & self.sub_mask(y))

    def approximations(self) -> tuple[Approx, ...]:
        """Every initial segment of every reduct (the truncated AR set)."""
        if self._approxes is None:
            seen: set[Approx] = {EMPTY}
            for y in self.all_reducts():
                seen.update(self.segments(y)[1:])
            self._approxes = tuple(sorted(seen, key=approx_sort_key))
        return self._approxes

    def basic(self, s: Approx, x: Approx) -> tuple[Approx, ...]:
        """[s, x]: reducts y <= x having s as an initial segment."""
        return self.reducts_in(self.sub_mask(x) & self.prefix_mask(s))

    def a4_ranking(self, s: Approx, x: Approx) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The A.4 search's candidates on [s, x], kept per (s, x): the id
        of s's first child; per child of s, its up_mask cut to the
        candidates C, the reducts of [s, x] above s; and the ids in C
        that some child lies below, by most such children, then least
        key. extensions(s, y) for y in C are the children whose cut mask
        has y's bit, in child order."""
        hit = self._a4_rankings.get((s, x))
        if hit is None:
            hit = self._a4_rankings[s, x] = self._rank_a4(s, x)
        return hit

    def _rank_a4(self, s: Approx, x: Approx) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        reds, i = self.all_reducts(), self._bit(s)
        if i is None:
            return 0, (), ()
        lo, hi = self._starts[i], self._starts[i + 1]
        candidates = self.sub_mask(x) & self.prefix_mask(s) & self.up_mask(s)
        cuts = tuple(self.up_mask(c) & candidates for c in reds[lo:hi])
        counts: dict[int, int] = {}
        for cut in cuts:
            for k in _bits(cut):
                counts[k] = counts.get(k, 0) + 1
        # Ties go by key, not by id: across lengths the two orders differ.
        return lo, cuts, tuple(sorted(counts, key=lambda k: (-counts[k], reds[k].key)))

    # ---- identity --------------------------------------------------------

    def instance_tag(self) -> str:
        """The kind and a digest of instance_to_json, computed once: the
        levels and parameters are fixed at construction."""
        if self._tag is None:
            blob = json.dumps(instance_to_json(self), sort_keys=True).encode()
            self._tag = f"{self.kind}:{hashlib.sha256(blob).hexdigest()[:12]}"
        return self._tag

    def front_tables(self) -> dict:
        """The store of per-front tables, keyed by front, that
        fronts.front_table fills; it holds only fronts of this instance."""
        return self._front_tables


def instance_to_json(model: SpaceModel) -> dict:
    """The instance description that instance_from_json rebuilds from."""
    return {
        "instance": model.kind,
        "levels": [list(l) for l in model.levels],
        "params": dict(sorted(model.params.items())),
    }


# ---- axiom harness -------------------------------------------------------

def _report(check: str, verdict: str, witness=None, **extra) -> dict:
    """Every check report: the checks are exhaustive, so coverage is 1.0."""
    return {"check": check, "verdict": verdict, "witness": witness, "coverage": 1.0, **extra}


def _bits(mask: int):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_a1(model: SpaceModel) -> dict:
    reds = model.all_reducts()
    segs = [model.segments(x) for x in reds]
    # A.1(1): the empty segment of every reduct is empty.
    for x, sx in zip(reds, segs):
        if sx[0] != EMPTY:
            return _report("A1", "fail", witness={"clause": 1, "x": x})
    # A.1(2): distinct reducts differ at some segment length, so no two
    # share a segment tuple. The pairwise scan only names the first pair.
    if len(set(segs)) < len(segs):
        for (x, sx), (y, sy) in itertools.combinations(zip(reds, segs), 2):
            if sx == sy:
                return _report("A1", "fail", witness={"clause": 2, "x": x, "y": y})
    # A.1(3): equal segments force equal lengths and equal earlier
    # segments, i.e. equal tuples of earlier segments. That relation is
    # an equivalence, so checking every occurrence of a segment against
    # its first is linear; the pairwise scan only names the first witness.
    first: dict[Approx, tuple[Approx, ...]] = {}
    if any(first.setdefault(seg, sx[:n]) != sx[:n] for sx in segs for n, seg in enumerate(sx)):
        for x, sx in zip(reds, segs):
            for y, sy in zip(reds, segs):
                for n, rx in enumerate(sx):
                    for m, ry in enumerate(sy):
                        if rx == ry and sx[:n] != sy[:m]:
                            return _report(
                                "A1", "fail",
                                witness={"clause": 3, "x": x, "y": y, "n": n, "m": m},
                            )
    return _report("A1", "pass", stats={"reducts": len(reds)})


# The hooks through which a model reads its order. A model keeping
# SpaceModel's for all of them orders the reducts by containment of their
# piece sets, with EMPTY below everything: a preorder by construction.
_ORDER_HOOKS = ("_line", "_reducts_above", "_reducts_below", "_pieces", "_piece_masks")


def _orders_by_containment(model: SpaceModel) -> bool:
    return model._keeps(*_ORDER_HOOKS)


def _check_a2(model: SpaceModel) -> dict:
    """A.2: (1) predecessor sets are finite, (2) x <= y iff every segment
    of x lies below some segment of y, (3) a segment of t lies below some
    segment of each t' >= t.

    On a containment order with SpaceModel's restrict, A.2 passes on the
    full reduct's column alone, once every reduct lies below it. The walk
    makes each reduct parent.extend(b), the parent EMPTY or an earlier
    reduct, so with interning every prefix of a reduct is EMPTY or a
    stored reduct: the approximations are EMPTY and the R reducts, whose
    pieces lie in their reduct's. So x <= y gives every segment of x
    below y, its own segment; x below a segment of y gives x <= y; a
    segment s of t has s <= t <= t'; and the predecessors of any t lie
    among the full reduct's, all R + 1 approximations. Otherwise, and
    on every other model, the rows are searched.
    """
    reds = model.all_reducts()
    if (
        _orders_by_containment(model) and model._keeps("restrict")
        and model._column(model.full) == (2 << len(reds)) - 1
    ):
        count = len(reds) + 1
        return _report("A2", "pass", stats={"max_predecessors": count, "approximations": count})
    approxes = model.approximations()
    # Only EMPTY and the reducts lie below anything. EMPTY takes bit 0 and
    # reduct i bit i + 1, so the bits run in approximation order; a
    # segment that is neither (an overridden restrict can name one) takes
    # the spare bit len(reds) + 1, whose row stays empty. These are the
    # bits of the model's own rows, which later checks on the model share.
    tops = (EMPTY, *reds)

    def bit(a: Approx) -> int:
        j = model._bit(a)
        return len(reds) + 1 if j is None else j

    rows = [model._row(s) for s in tops] + [0]
    # occurs[b] holds the y with b among their segments, so reach[a], the
    # OR of occurs over a's row, holds the y with a below a segment of y.
    occurs = [0] * len(rows)
    for j, y in enumerate(tops):
        for u in model.segments(y):
            occurs[bit(u)] |= 1 << j
    reach = [reduce(or_, map(occurs.__getitem__, _bits(row)), 0) for row in rows]
    inside = reduce(or_, (1 << bit(t) for t in approxes))  # the approximations
    # A.2(1): predecessor sets are finite; report the largest one. The
    # predecessors of t are its column.
    stats = {"max_predecessors": max((model._column(t) & inside).bit_count() for t in approxes)}
    # A.2(2): the reduct order matches the segmentwise finitization order,
    # x <= y iff every segment of x reaches y. Bit 0 is no reduct.
    for x in reds:
        row = rows[bit(x)]
        quantified = reduce(and_, (reach[bit(a)] for a in model.segments(x)))
        diff = (row ^ quantified) & ~1
        if diff:
            j = next(_bits(diff))
            return _report(
                "A2", "fail",
                witness={"clause": 2, "x": x, "y": tops[j],
                         "direct": bool(row >> j & 1), "quantified": bool(quantified >> j & 1)},
                stats=stats,
            )
    # A.2(3): a segment below a reduced approximation lifts to a segment
    # of the larger one. Prefixes are all representable, so the clause is
    # decidable except when the larger approximation still has extension
    # room past the truncation; those misses are reported undecided. The
    # misses of s are the approximations above t that s does not reach.
    undecided = []
    for t in approxes:
        for s in model.segments(t):
            for j in _bits(rows[bit(t)] & inside & ~reach[bit(s)]):
                witness = {"clause": 3, "s": s, "t": t, "tprime": tops[j]}
                if not model.extension_blocks(tops[j], model.full):
                    return _report("A2", "fail", witness=witness, stats=stats)
                undecided.append(witness)
    if undecided:
        return _report(
            "A2", "undecided", witness=undecided[0],
            stats={**stats, "boundary_misses": len(undecided)},
        )
    return _report("A2", "pass", stats={**stats, "approximations": len(approxes)})


def _is_preorder(sub: list[int]) -> bool:
    """The reduct columns sub hold a reflexive and transitive order."""
    return all(sx >> i & 1 and not any(sub[z] & ~sx for z in _bits(sx)) for i, sx in enumerate(sub))


def _squeezes(sub: list[int], ps: int, bx: int, by: int) -> bool:
    """Some z in [s, y] has a nonempty [s, z] inside [s, x], where ps is
    the prefix mask of s and bx, by the masks of [s, x], [s, y]."""
    # Only an order that is no preorder gets here; members of [s, x] go first.
    for cands in (by & bx, by & ~bx):
        for i in _bits(cands):
            bz = sub[i] & ps
            if bz and not bz & ~bx:
                return True
    return False


def _check_a3(model: SpaceModel) -> dict:
    """A.3: (1) [s, x] nonempty passes down to each y in it, (2) for
    x <= y, some z in [s, y] has a nonempty [s, z] inside [s, x].

    A preorder passes, whatever restrict does: y lies in [s, y], and any z
    of [s, x] lies in [s, y] with [s, z] inside [s, x]. A containment
    order is one by construction, so it passes without a column; other
    orders are tested on the columns, and only one that is no preorder
    is searched.
    """
    reds = model.all_reducts()
    if _orders_by_containment(model):
        return _report("A3", "pass", stats={"reducts": len(reds)})
    sub = [model.sub_mask(x) for x in reds]
    if _is_preorder(sub):
        return _report("A3", "pass", stats={"reducts": len(reds)})
    approxes = model.approximations()
    pre = [model.prefix_mask(s) for s in approxes]
    # A.3(1): nonemptiness of [s, x] passes down to every member.
    for s, ps in zip(approxes, pre):
        dead = sum(1 << i for i, sy in enumerate(sub) if not sy & ps)
        for x, sx in zip(reds, sub):
            hit = sx & ps & dead
            if hit:
                y = reds[next(_bits(hit))]
                return _report("A3", "fail", witness={"clause": 1, "s": s, "x": x, "y": y})
    # A.3(2): inside a larger reduct, some member of [s, y] squeezes its
    # basic set into [s, x]. Honest search over every candidate.
    live = [
        [(s, ps, sx & ps) for s, ps in zip(approxes, pre) if sx & ps]
        for sx in sub
    ]
    for y, sy in zip(reds, sub):
        for xi in _bits(sy):
            for s, ps, bx in live[xi]:
                if not _squeezes(sub, ps, bx, sy & ps):
                    return _report(
                        "A3", "fail", witness={"clause": 2, "s": s, "x": reds[xi], "y": y}
                    )
    return _report("A3", "pass", stats={"reducts": len(reds)})


_CHECKERS = {"A1": _check_a1, "A2": _check_a2, "A3": _check_a3}


def check_axioms(model: SpaceModel, axiom: str, config: Config = DEFAULT_CONFIG) -> dict:
    """Exhaustively check one structural axiom group on the truncation.

    axiom is "A1", "A2" or "A3"; the amalgamation pigeonhole has its own
    entry point (pigeonhole_A4) because it takes a coloring.
    """
    checker = _CHECKERS.get(axiom)
    if checker is None:
        raise DomainError(f"unknown axiom group {axiom!r}; expected A1, A2 or A3")
    model.all_reducts(config.max_reducts)
    report = checker(model)
    report["instance"] = model.instance_tag()
    return report


def kernel_ids(values: Iterable) -> tuple[int, ...]:
    """The kernel of a labeling in normal form, its restricted growth
    string: each label becomes the rank of its first occurrence. Two
    labelings have one kernel exactly when their kernel_ids are equal."""
    first: dict = {}
    return tuple([first.setdefault(v, len(first)) for v in values])


def first_mismatch(items, same, values) -> Optional[tuple]:
    """The first pair (items[i], items[j]), i < j, on which the relation
    same and equality of the parallel values disagree; None when the two
    kernels on items are equal. Every canonical claim is this test."""
    for i, p in enumerate(items):
        for j in range(i + 1, len(items)):
            if same(p, items[j]) != (values[i] == values[j]):
                return p, items[j]
    return None


def a4star_search(
    model: SpaceModel,
    s: Approx,
    x: Approx,
    color: Callable[[Approx], object],
    family: tuple[str, ...],
    config: Config = DEFAULT_CONFIG,
) -> Optional[tuple[Approx, str]]:
    """The A.4* search: the first reduct y of [s, x], by most extensions
    of s then least key and keeping at least mu of them, with the first
    selector of family whose values on the last blocks of those
    extensions have the kernel of color; None when there is none, as
    when s has no extension inside x. A.4 is the family ("drop",).
    color is asked at most once per extension. The ranking is read
    off a4_ranking, kept per (s, x) for every coloring."""
    reds = model.all_reducts(config.max_reducts)
    colors: dict[Approx, object] = {}

    def same(p: Approx, q: Approx) -> bool:
        for c in (p, q):
            if c not in colors:
                colors[c] = color(c)
        return colors[p] == colors[q]

    lo, cuts, ranked = model.a4_ranking(s, x)
    for k in ranked:
        exts = tuple([reds[lo + j] for j, cut in enumerate(cuts) if cut >> k & 1])
        if len(exts) < config.mu:
            break
        for name in family:
            values = [model.apply_selector(name, p.blocks[-1]) for p in exts]
            if first_mismatch(exts, same, values) is None:
                return reds[k], name
    return None


def pigeonhole_A4(
    model: SpaceModel,
    s: Approx,
    x: Approx,
    coloring: Callable[[Approx], int],
    config: Config = DEFAULT_CONFIG,
) -> Approx:
    """One-step pigeonhole: a reduct in [s, x] whose extensions are
    monochromatic under the given coloring of extensions(s, x).

    Returns the witness with the most extensions (ties broken by least
    key). Raises TruncationTooShallowError when no admissible witness
    exists, which at desk scale means [s, x] is empty or every candidate
    has fewer than mu extensions.
    """
    model.all_reducts(config.max_reducts)
    if not model.extension_blocks(s, x):
        raise TruncationTooShallowError(
            "no extensions of the segment inside the given reduct"
        )
    found = a4star_search(model, s, x, coloring, ("drop",), config)
    if found is None:
        raise TruncationTooShallowError(
            "no monochromatic reduct with enough extensions in the truncation"
        )
    return found[0]


# ---- fusion --------------------------------------------------------------

@dataclass
class PropertyOracle:
    """A hereditary property handed to fuse.

    check(*entry, y) decides an agenda entry against reduct y; the
    default entries are single approximations. domain restricts which
    approximations are fused over (default: all). first_failure is
    fuse's scan of a stage's pool; a subclass may replace it with a
    tighter scan over entries of its own, as long as holds(entry, y)
    decides each entry it reports.
    """

    check: Callable[..., bool]
    domain: Optional[Callable[[Approx], bool]] = None

    def holds(self, args: tuple[Approx, ...], y: Approx) -> bool:
        return bool(self.check(*args, y))

    def first_failure(self, pool: list[Approx], y: Approx) -> Optional[tuple[Approx, ...]]:
        """The first agenda entry over pool that fails on y, or None."""
        return next(((z,) for z in pool if not self.holds((z,), y)), None)


def _fusion_agenda(model: SpaceModel, oracle: PropertyOracle, bound: Approx) -> list[Approx]:
    pool = [EMPTY, *model.sub_reducts(bound)]
    if oracle.domain is not None:
        pool = [z for z in pool if oracle.domain(z)]
    return pool


def fuse(
    model: SpaceModel,
    oracle: PropertyOracle,
    start: Optional[Approx] = None,
    config: Config = DEFAULT_CONFIG,
) -> Approx:
    """Diagonal fusion: shrink a reduct until the property holds for all
    agenda entries over the approximations below it.

    Stage n freezes the first n+1 blocks of the current reduct and
    settles the property for everything reducible to that segment,
    re-verifying the stage agenda after each shrink since hereditary
    properties can lose their admissibility pool at the boundary.
    Raises FusionExhaustedError (carrying the stage and the partial
    reduct) when some agenda entry cannot be settled.
    """
    model.all_reducts(config.max_reducts)
    x = start if start is not None else model.full
    if start is not None and not (start.blocks and model.leq_fin(start, model.full)):
        raise DomainError("fusion start must be a reduct of the space")
    budget = config.depth_budget
    stage = 0
    while True:
        frozen = model.restrict(x, min(stage + 1, len(x)))
        agenda = _fusion_agenda(model, oracle, frozen)
        for _ in range(model.sub_mask(x).bit_count() + 1):
            bad = oracle.first_failure(agenda, x)
            if bad is None:
                break
            for y in longest_first(model.basic(frozen, x)):
                if y != x and oracle.holds(bad, y):
                    x = y
                    break
            else:
                break  # no replacement
        if bad is not None:  # unsettled: no replacement, or the shrink cap ran out
            raise FusionExhaustedError(stage, partial=x)
        stage += 1
        if stage >= len(x):
            break
        if budget is not None and stage > budget:
            break
    return x
