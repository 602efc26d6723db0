"""Mixing analysis for colored fronts.

MixingEngine.decide classifies a pair of interior segments against a
reduct: the reduct separates them (no equally colored pair of extensions
anywhere inside), mixes them (every admissible reduct below keeps an
equally colored pair), or leaves the pair undecided. Admissible means both
segments still have at least mu front extensions; pairs with an empty
admissibility pool are sticky undecided, they have fallen out of the
front's hat below this reduct. MixingEngine holds per-segment rows as
bitsets over the model's reducts and forms the pool and the equally
colored reducts from them on each call; stage A's fusion scans its pair
agenda on the same rows without a call per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Optional

from .errors import DomainError
from .fronts import Coloring, front_table
from .model import (
    Approx,
    Config,
    DEFAULT_CONFIG,
    PropertyOracle,
    SpaceModel,
    _bits,
    _report,
    fuse,
)
from .reportio import approx_to_json, to_jsonable
from .spaces import closure

MIXES = "mixes"
SEPARATES = "separates"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Verdict:
    kind: str
    reason: str = ""


_MIXED = Verdict(MIXES)
_SEPARATED = Verdict(SEPARATES)
_LEFT_HAT = Verdict(UNDECIDED, "no admissible reduct below; the pair leaves the hat")
_SPLIT = Verdict(UNDECIDED, "equal-colored pair on the reduct but a separating reduct below")


class MixingEngine:
    """Realizability rows of one colored front, as bitsets over the
    model's reducts: per hat segment a, the reducts realizing at least mu
    members extending a, and per color those realizing one of that color.
    A segment's rows are one pair (admissible row, per-color rows), the
    tuple indexed by the kernel-normalized color. Realizability is
    up-closed under leq_fin, so a nonempty pool below x contains x, and
    decide is three mask tests on it. The member masks come from the
    front's table, shared by every coloring of the front."""

    def __init__(self, model: SpaceModel, coloring: Coloring, config: Config = DEFAULT_CONFIG):
        model.all_reducts(config.max_reducts)
        self.model = model
        self.coloring = coloring
        self.front = coloring.front
        self.config = config
        self.members = self.front.members
        self.table = front_table(model, self.front)
        if self.table.members_below(self.front.scope) != (1 << len(self.members)) - 1:
            raise DomainError("a front member is no approximation inside the front's scope")
        self._rows: dict[Approx, tuple[int, tuple[int, ...]]] = {}

    # -- masks -------------------------------------------------------------

    def real_bits(self, y: Approx) -> int:
        return self.table.members_below(y)

    def live_bits(self, y: Approx, a: Approx) -> int:
        return self.table.extending[a] & self.real_bits(y)

    def _row(self, a: Approx) -> tuple[int, tuple[int, ...]]:
        """The rows of hat segment a, from the up masks of its members."""
        row = self._rows.get(a)
        if row is None:
            ext = self.table.extending.get(a)
            if ext is None:
                raise DomainError("mixing is defined on initial segments of members")
            # Bit-sliced counters: slice k holds the reducts realizing
            # more than k of the members seen so far. No slice past the
            # first one at the member count is kept: they all stay 0.
            more_than = [0] * min(self.config.mu, ext.bit_count() + 1)
            by_color = [0] * self.coloring.classes()
            for i in _bits(ext):
                up = self.model.up_mask(self.members[i])
                for k in range(len(more_than) - 1, 0, -1):
                    more_than[k] |= more_than[k - 1] & up
                more_than[0] |= up
                by_color[self.coloring.colors[i]] |= up
            row = self._rows[a] = (more_than[-1], tuple(by_color))
        return row

    def pool(self, x: Approx, s: Approx, t: Approx) -> int:
        """Bitset of the admissible reducts below x: those keeping at
        least mu front extensions of s and of t."""
        return self.model.sub_mask(x) & self._row(s)[0] & self._row(t)[0]

    def in_hat(self, a: Approx) -> bool:
        return a in self.table.extending

    def hat_below(self, x: Approx) -> tuple[Approx, ...]:
        """Initial segments of members realizable inside x."""
        live = self.real_bits(x)
        return tuple(a for a, ext in self.table.extending.items() if ext & live)

    def interior_below(self, x: Approx) -> tuple[Approx, ...]:
        """hat_below(x) without the members: the interior segments."""
        return tuple(a for a in self.hat_below(x) if a not in self.front.positions)

    def live_extensions(self, a: Approx, y: Approx) -> tuple[Approx, ...]:
        """One-block extensions of a inside y that are hat segments with
        a member realizable in y."""
        return tuple(
            p for p in self.model.extensions(a, y)
            if self.in_hat(p) and self.live_bits(y, p)
        )

    # -- verdicts ------------------------------------------------------------

    def decide(self, x: Approx, s: Approx, t: Approx) -> Verdict:
        # pool inlined: each segment's row is read once.
        rows = self._rows
        admissible_s, by_color_s = rows.get(s) or self._row(s)
        admissible_t, by_color_t = rows.get(t) or self._row(t)
        pool = self.model.sub_mask(x) & admissible_s & admissible_t
        if not pool:
            return _LEFT_HAT
        equal = pool & reduce(or_, map(and_, by_color_s, by_color_t), 0)
        if equal == pool:
            return _MIXED
        return _SPLIT if equal else _SEPARATED

    def mixes(self, x: Approx, s: Approx, t: Approx) -> bool:
        return self.decide(x, s, t).kind == MIXES

    def deciding_reduct(self) -> Approx:
        """Stage A: fuse the front's scope down to a reduct that decides
        every pair of hat segments, or sees the pair leave the hat below
        it. Raises FusionExhaustedError as fuse does."""
        return fuse(self.model, _PairScan(self), start=self.front.scope, config=self.config)


class _PairScan(PropertyOracle):
    """Stage A's oracle. Its agenda entries are the pairs (a, b) of hat
    segments of the pool, b from a onward, and an entry fails on y when
    decide(y, a, b) is _SPLIT. first_failure reads that verdict off the
    rows directly: a's row is cut to y once, and its colors with no
    reduct left below y are dropped before the walk over b. The walk
    starts past a: (a, a) is never split, since for mu >= 1 a's
    admissible row lies inside the OR of its color rows."""

    def __init__(self, engine: MixingEngine):
        super().__init__(
            check=lambda s, t, y: engine.decide(y, s, t) is not _SPLIT,
            domain=engine.in_hat,
        )
        self.engine = engine

    def first_failure(self, pool: list[Approx], y: Approx) -> Optional[tuple[Approx, Approx]]:
        engine = self.engine
        rows, row = engine._rows, engine._row
        seg_rows = [rows.get(z) or row(z) for z in pool]
        below = engine.model.sub_mask(y)
        for i, (admissible_a, by_color_a) in enumerate(seg_rows):
            xa = below & admissible_a
            if not xa:
                continue
            live = [(c, xa & m) for c, m in enumerate(by_color_a) if xa & m]
            for b, (admissible_b, by_color_b) in zip(pool[i + 1:], seg_rows[i + 1:]):
                equal = 0
                for c, m in live:
                    equal |= m & by_color_b[c]
                equal &= admissible_b
                if equal and equal != xa & admissible_b:
                    return pool[i], b
        return None


# ---------------------------------------------------------------------------
# Tables.

@dataclass
class MixingTable:
    reduct: Approx
    rows: tuple[Approx, ...]
    depths: tuple[object, ...]
    verdicts: dict[tuple[int, int], Verdict]
    engine: MixingEngine = field(repr=False)

    def undecided_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            ij for ij, v in sorted(self.verdicts.items()) if v.kind == UNDECIDED
        )

    def to_json(self) -> dict:
        return {
            "check": "mixing_table",
            "reduct": approx_to_json(self.reduct),
            "fused": True,
            "rows": [approx_to_json(a) for a in self.rows],
            "depths": to_jsonable(self.depths),
            "entries": [
                {"i": i, "j": j, "verdict": v.kind, "reason": v.reason}
                for (i, j), v in sorted(self.verdicts.items())
            ],
            "undecided": len(self.undecided_pairs()),
        }


def mixing_table(
    model: SpaceModel,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
) -> MixingTable:
    """All pairwise verdicts over the interior segments (hat minus the
    front) surviving inside the deciding reduct, which decides every
    surviving pair."""
    engine = MixingEngine(model, coloring, config)
    z = engine.deciding_reduct()
    rows = engine.interior_below(z)
    depths = tuple(model.depth(z, a) for a in rows)
    verdicts: dict[tuple[int, int], Verdict] = {}
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            verdicts[(i, j)] = engine.decide(z, rows[i], rows[j])
    return MixingTable(z, rows, depths, verdicts, engine)


def transitivity_check(table: MixingTable) -> dict:
    """Hunt mixing-transitivity failures in a table. Failures among
    segments of one common depth contradict the equal-depth transitivity
    law and fail the check; failures across depths are reported as
    findings (the known non-transitive behavior)."""
    rows, depths, verdicts = table.rows, table.depths, table.verdicts
    equal_depth = []
    unequal_depth = []
    # Per segment, the others it mixes with, in row order.
    mixes_with: list[list[int]] = [[] for _ in rows]
    for (i, j), v in sorted(verdicts.items()):
        if i != j and v.kind == MIXES:
            mixes_with[i].append(j)
            mixes_with[j].append(i)
    for mid, around in enumerate(mixes_with):
        for k, a in enumerate(around):
            for b in around[k + 1:]:
                if verdicts[(a, b)].kind != SEPARATES:
                    continue
                item = {
                    "s": rows[a], "t": rows[mid], "tprime": rows[b],
                    "depths": [depths[a], depths[mid], depths[b]],
                }
                same = depths[a] == depths[mid] == depths[b] != math.inf
                (equal_depth if same else unequal_depth).append(item)
    return _report(
        "transitivity", "fail" if equal_depth else "pass",
        witness=equal_depth[0] if equal_depth else None,
        equal_depth=equal_depth, unequal_depth=unequal_depth,
    )


# ---------------------------------------------------------------------------
# Weak mixing.

def weak_mixing_detect(
    model: SpaceModel,
    x: Approx,
    s: Approx,
    t: Approx,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
    engine: Optional[MixingEngine] = None,
) -> Optional[dict]:
    """Detect a forced transfer block for a mixed pair at unequal depths.

    A witness is the least level-material block w inside t beyond s such
    that on every admissible reduct, every equally colored extension pair
    puts w inside the first new block on the s side, and the block
    properly combines w with further material. None when plain mixing
    needs no such block (or the pair is not mixed at all). A given
    engine must have been built for this model and coloring.
    """
    if engine is None:
        eng = MixingEngine(model, coloring, config)
    elif engine.model is model and engine.coloring == coloring:
        eng = engine
    else:
        raise DomainError("the engine belongs to another model or coloring")
    if not (eng.in_hat(s) and eng.in_hat(t)):
        raise DomainError("weak mixing is defined on initial segments of members")
    ds, dt = model.depth(x, s), model.depth(x, t)
    if not (ds < dt):
        raise DomainError("weak mixing needs strictly increasing depths")
    if eng.decide(x, s, t).kind != MIXES:
        return None
    n = len(s)
    members, colors = eng.members, eng.coloring.colors
    # Per admissible reduct, the first new s-side block of every equally
    # colored pair of extensions; a reduct without such a pair admits no w.
    pairs_by_y = []
    for y in model.reducts_in(eng.pool(x, s, t)):
        t_side = list(_bits(eng.live_bits(y, t)))
        pairs = [
            (members[i].blocks[n], (members[i], members[j]))
            for i in _bits(eng.live_bits(y, s)) if len(members[i]) > n
            for j in t_side if colors[i] == colors[j]
        ]
        if not pairs:
            return None
        pairs_by_y.append((y, pairs))

    t_extra = t.atom_set() - s.atom_set()
    for w in closure(model, x):
        inside = set(w.atoms)
        if not inside <= t_extra:
            continue
        shaped_by_y = []
        for y, pairs in pairs_by_y:
            if not all(inside <= set(blk.atoms) for blk, _ in pairs):
                break
            shaped = [(blk, pair) for blk, pair in pairs if model.proper_combination(blk, w, s)]
            if not shaped:
                break
            shaped_by_y.append((y, shaped))
        else:
            blocks = [blk for _, shaped in shaped_by_y for blk, _ in shaped]
            top = max(w.atoms)
            return {
                "check": "weak_mixing",
                "w": w,
                "s": s,
                "t": t,
                "all_pairs_shaped": len(blocks) == sum(len(p) for _, p in pairs_by_y),
                "extra_material_above_w": all(
                    a > top for blk in blocks for a in blk.atoms if a not in inside
                ),
                "evidence": [{"reduct": y, "pair": sh[0][1]} for y, sh in shaped_by_y[:3]],
            }
    return None
