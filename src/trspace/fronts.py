"""Fronts over a reduct, and colorings of their members.

A front is a finite family of approximations that no reduct inside the
scope can dodge; the uniform front of rank n collects every length-n
initial segment. Colorings are kept kernel-normalized (colors relabeled
by first occurrence) so equality of colorings means equality of the
induced partitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import DomainError, InstanceMismatchError, ParameterError
from .model import (
    Approx, EMPTY, SpaceModel, _bits, _report, approx_sort_key, derive_seed, kernel_ids,
)
from .reportio import approx_from_json, approx_to_json, is_int_list


@dataclass(frozen=True)
class Front:
    members: tuple[Approx, ...]
    scope: Approx
    instance: str
    anchor: Approx = EMPTY
    flags: tuple[str, ...] = ()
    # Each member's index in the sorted members, the one member index.
    positions: dict[Approx, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(sorted(self.members, key=approx_sort_key))
        positions = {m: i for i, m in enumerate(members)}
        if len(positions) < len(members):
            raise ParameterError("front members must be distinct")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.members)

    def arity(self) -> int:
        return max((len(m) for m in self.members), default=0)


def _check_instance(model: SpaceModel, front: Front) -> None:
    if front.instance != model.instance_tag():
        raise InstanceMismatchError(
            f"front built on {front.instance}, model is {model.instance_tag()}"
        )


def uniform_front(model: SpaceModel, n: int) -> Front:
    """The rank-n uniform front: every length-n segment of a reduct of
    the space. Empty result (n beyond the truncation) is rejected."""
    if n < 0:
        raise ParameterError("front rank must be nonnegative")
    members = {
        model.restrict(y, n) for y in model.sub_reducts(model.full) if len(y) >= n
    }
    if not members:
        raise ParameterError(
            f"rank {n} leaves no members inside the truncation"
        )
    return Front(tuple(members), scope=model.full, instance=model.instance_tag())


def is_front(
    model: SpaceModel, members: Iterable[Approx], scope: Optional[Approx] = None,
    anchor: Approx = EMPTY,
) -> dict:
    """Check the front laws: an antichain under end extension that meets
    every reduct of [anchor, scope].

    A reduct y with no member segment is only a counterexample when it
    is not itself en route to a member and can grow, inside [y, scope],
    to a reduct as long as the longest member: that reduct, and every
    longer extension of it, meets the family only in segments it already
    has. The other such reducts are dead ends at the truncation boundary,
    reported as flags, not failures.
    """
    x = scope if scope is not None else model.full
    mem = tuple(sorted(set(members), key=approx_sort_key))
    # Each proper segment of a member, with the first member having it.
    route: dict[Approx, Approx] = {}
    for t in mem:
        for seg in model.segments(t)[:-1]:
            route.setdefault(seg, t)
    s = next((s for s in mem if s in route), None)
    if s is not None:
        witness = {"reason": "not an antichain", "s": s, "t": route[s]}
        return _report("is_front", "fail", witness=witness)
    family = set(mem)
    longest = max(map(len, mem), default=0)
    boundary = []
    for y in model.basic(anchor, x):
        if y in route or not family.isdisjoint(model.segments(y)):
            continue  # en route to a member (its extensions answer for it), or meets one
        # basic is in id order, so its last reduct is a longest one.
        if len(model.basic(y, x)[-1]) >= longest:
            witness = {"reason": "reduct dodges the family", "y": y}
            return _report("is_front", "fail", witness=witness)
        boundary.append(y)
    flags = ("boundary_dead_ends",) if boundary else ()
    return _report(
        "is_front", "pass", flags=flags, stats={"members": len(mem), "dead_ends": len(boundary)},
    )


class FrontTable:
    """What a front fixes on its model, whatever the coloring. Member i
    is bit i of a member mask.

    hat: every initial segment of a member, the members included, in
    approx_sort_key order. extending: per hat segment, in hat order, the
    mask of the members extending it. Filled on first use: per
    approximation y, the mask of the members <= y (members_below), and
    per (position, selector) the members' class ids (class_ids).
    """

    def __init__(self, model: SpaceModel, front: Front):
        self.model = model
        self.front = front
        extending: dict[Approx, int] = {}
        for i, m in enumerate(front.members):
            for a in model.segments(m):
                extending[a] = extending.get(a, 0) | 1 << i
        self.hat = tuple(sorted(extending, key=approx_sort_key))
        self.extending = {a: extending[a] for a in self.hat}
        self._below: dict[Approx, int] = {}
        self._ids: dict[tuple[int, str], tuple[int, ...]] = {}

    def members_below(self, y: Approx) -> int:
        """The mask of the members <= y."""
        mask = self._below.get(y)
        if mask is None:
            positions = self.front.positions
            below = self.model.below(self.front.members, y)
            mask = self._below[y] = sum(1 << positions[m] for m in below)
        return mask

    def members_in(self, mask: int) -> tuple[Approx, ...]:
        """The members whose bits are set, in member order."""
        return tuple(self.front.members[i] for i in _bits(mask))

    def class_ids(self, pos: int, name: str) -> tuple[int, ...]:
        """Per member, the id of the selector's value on its block at pos,
        or of () when the member is shorter; equal values share an id."""
        ids = self._ids.get((pos, name))
        if ids is None:
            select = self.model.apply_selector
            ids = self._ids[(pos, name)] = kernel_ids(
                select(name, m.blocks[pos]) if pos < len(m) else () for m in self.front.members
            )
        return ids


def front_table(model: SpaceModel, front: Front) -> FrontTable:
    """The front's table on model, built on first use and kept in the
    model's store. InstanceMismatchError for a front of another instance,
    on every call."""
    _check_instance(model, front)
    tables = model.front_tables()
    table = tables.get(front)
    if table is None:
        table = tables[front] = FrontTable(model, front)
    return table


def hat(model: SpaceModel, front: Front) -> tuple[Approx, ...]:
    """All initial segments of members, the members included."""
    return front_table(model, front).hat


def subfront(model: SpaceModel, front: Front, t: Approx) -> Front:
    """The members above an interior segment t, anchored at t."""
    _check_instance(model, front)
    if t in front.positions:
        raise DomainError("segment is already a member; the subfront is trivial")
    mem = tuple(m for m in front.members if t in model.segments(m))
    if not mem:
        raise DomainError("segment is not an initial segment of any member")
    return Front(mem, scope=front.scope, instance=front.instance, anchor=t)


def restrict_front(model: SpaceModel, front: Front, y: Approx) -> Front:
    """Members realizable inside y. When the restriction fails to cover
    some grown reduct of y the result carries an undecided flag."""
    _check_instance(model, front)
    if not (y.blocks and model.leq_fin(y, front.scope)):
        raise DomainError("restriction target is not a reduct of the scope")
    mem = model.below(front.members, y)
    flags: tuple[str, ...] = ()
    if mem:
        verdict = is_front(model, mem, scope=y, anchor=front.anchor)
        if verdict["verdict"] != "pass":
            flags = ("covering_undecided",)
    else:
        flags = ("covering_undecided",)
    return Front(mem, scope=y, instance=front.instance, anchor=front.anchor, flags=flags)


# ---------------------------------------------------------------------------
# Colorings.

@dataclass(frozen=True)
class Coloring:
    """A coloring of a front's members, stored kernel-normalized."""

    front: Front
    colors: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self):
        if len(self.colors) != len(self.front.members):
            raise ParameterError("need exactly one color per member")
        object.__setattr__(self, "colors", kernel_ids(self.colors))

    def __call__(self, member: Approx) -> int:
        idx = self.front.positions.get(member)
        if idx is None:
            raise DomainError("approximation is not a member of the colored front")
        return self.colors[idx]

    def classes(self) -> int:
        return len(set(self.colors))


def color_front(front: Front, fn: Callable[[Approx], object], name: str = "custom") -> Coloring:
    return Coloring(front, tuple(map(fn, front.members)), name=name)


def _gen_constant(m: Approx):
    return 0


def _gen_injective(m: Approx):
    return m.key


def _gen_min(m: Approx):
    return min(m.atom_set())


def _gen_max(m: Approx):
    return max(m.atom_set())


def _gen_union(m: Approx):
    return tuple(sorted(m.atom_set()))


def _gen_parity(m: Approx):
    return min(m.atom_set()) % 2


GENERATORS: dict[str, Callable[[Approx], object]] = {
    "constant": _gen_constant,
    "injective": _gen_injective,
    "min": _gen_min,
    "max": _gen_max,
    "union": _gen_union,
    "parity": _gen_parity,
    "minmax": lambda m: (min(m.atom_set()), max(m.atom_set())),
    "identity": _gen_injective,
}


def generated_coloring(front: Front, name: str, seed: Optional[int] = None) -> Coloring:
    """Colorings used throughout the test batteries; random-kernel draws
    a seeded partition of the members."""
    if name == "random-kernel":
        rng = random.Random(derive_seed("random-kernel", seed, front.instance,
                                        front.scope.key, len(front.members)))
        k = rng.randint(1, max(1, len(front.members)))
        colors = [rng.randrange(k) for _ in front.members]
        return Coloring(front, tuple(colors), name=f"random-kernel({seed})")
    fn = GENERATORS.get(name)
    if fn is None:
        raise ParameterError(f"unknown coloring generator {name!r}")
    try:
        return color_front(front, fn, name=name)
    except ValueError:  # min or max of the atoms of EMPTY, the rank-0 member
        raise ParameterError(
            f"coloring generator {name!r} reads atoms, and a front member has none"
        ) from None


# ---------------------------------------------------------------------------
# Serialization.

def front_to_json(front: Front) -> dict:
    return {
        "instance": front.instance,
        "scope": approx_to_json(front.scope),
        "anchor": approx_to_json(front.anchor),
        "members": [approx_to_json(m) for m in front.members],
        "flags": list(front.flags),
    }


def front_from_json(model: SpaceModel, payload: dict) -> Front:
    """Load a front and check it against the instance: the scope is a
    reduct, the members are distinct, lie below the scope, extend the
    anchor and form a front of the scope. Raises ParameterError otherwise."""
    flags = payload.get("flags", []) if isinstance(payload, dict) else None
    if not (
        isinstance(flags, list) and all(isinstance(f, str) for f in flags)
        and isinstance(payload.get("members"), list)
        and isinstance(payload.get("instance"), str)
    ):
        raise ParameterError("a front is an object with members, an instance tag and string flags")
    front = Front(
        members=tuple(approx_from_json(m) for m in payload["members"]),
        scope=approx_from_json(payload.get("scope")),
        instance=payload["instance"],
        anchor=approx_from_json(payload.get("anchor", {"blocks": []})),
        flags=tuple(flags),
    )
    _check_instance(model, front)
    if front.scope == EMPTY:
        raise ParameterError("a front's scope must be a nonempty reduct")
    inside = set(model.below((front.scope,) + front.members, model.full))
    for s in (front.scope,) + front.members:
        if s not in inside:
            raise ParameterError(
                f"front approximation {s.key} is not inside the {model.kind} instance"
            )
    below_scope = set(model.below(front.members, front.scope))
    for m in front.members:
        if m not in below_scope:
            raise ParameterError(f"front member {m.key} is not inside the scope")
        if front.anchor not in model.segments(m):
            raise ParameterError(f"front anchor is not an initial segment of member {m.key}")
    verdict = is_front(model, front.members, scope=front.scope, anchor=front.anchor)
    if verdict["verdict"] != "pass":
        raise ParameterError(
            f"front members are not a front: {verdict['witness']['reason']}"
        )
    return front


def coloring_to_json(coloring: Coloring) -> dict:
    return {
        "front": front_to_json(coloring.front),
        "colors": list(coloring.colors),
        "name": coloring.name,
    }


def coloring_from_json(model: SpaceModel, payload: dict) -> Coloring:
    """Load a coloring with its front, checked as front_from_json checks
    it. The i-th color belongs to the i-th member as listed in the file.
    Raises ParameterError on a malformed payload."""
    colors = payload.get("colors") if isinstance(payload, dict) else None
    if not (is_int_list(colors) and isinstance(payload.get("name", ""), str)):
        raise ParameterError("a coloring is an object with a front and a list of integer colors")
    front = front_from_json(model, payload.get("front"))
    if len(colors) != len(front.members):
        raise ParameterError("need exactly one color per member")
    # Front sorts its members; pair each color with its member first.
    color_of = dict(zip(map(approx_from_json, payload["front"]["members"]), colors))
    return Coloring(
        front, tuple(color_of[m] for m in front.members), name=payload.get("name", "custom")
    )
