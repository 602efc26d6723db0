"""Hand construction of blocks and approximations for the tests, and
the Hypothesis strategies that draw small instances."""

from __future__ import annotations

import json
from math import comb

from hypothesis import strategies as st

from trspace import (
    EMPTY,
    Approx,
    Block,
    EllentuckModel,
    FinModel,
    FusionExhaustedError,
    TreeModel,
    build_ellentuck,
    build_fin,
    build_tree,
)
from trspace.canonize import eval_inner
from trspace.mixing import _SPLIT, SEPARATES, UNDECIDED, MixingEngine
from trspace.model import (
    DEFAULT_CONFIG,
    _report,
    approx_sort_key,
    kernel_ids,
    longest_first,
)
from trspace.reportio import to_jsonable


def atom_block(a: int) -> Block:
    return Block((a + 1, a + 2), (a,))


def ea(*atoms: int) -> Approx:
    """Ellentuck approximation from atom ids."""
    return Approx(tuple(atom_block(a) for a in atoms))


def fblk(*indices: int) -> Block:
    """FIN block over singleton ground levels: the union of x_i for the
    given ground indices."""
    return Block((indices[0] + 1, indices[-1] + 2), tuple(indices))


def fa(*groups) -> Approx:
    """FIN approximation from index tuples, e.g. fa((0,), (1, 2))."""
    return Approx(tuple(fblk(*g) for g in groups))


def atoms_of(s: Approx) -> tuple[tuple[int, ...], ...]:
    """Readable shape of an approximation: the atom tuple per block."""
    return tuple(b.atoms for b in s.blocks)


def reference_canonical_json(value) -> str:
    """The canonical report text by its defining formula: the stock
    encoder over the `to_jsonable` copy, which the one-pass writer in
    `reportio.canonical_json` must match byte for byte."""
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2, allow_nan=False) + "\n"


def flip_bits(model, flips, a, up, line):
    """a's row (up) or column, line, with the pairs (s, t) of flips
    negated: t's bit in the row of s and s's bit in the column of t. The
    injected relation defects pass their lines through this."""
    for s, t in flips:
        if (s if up else t) == a:
            line ^= 1 << model._bit(t if up else s)
    return line


def reference_deciding_reduct(engine):
    """Stage A in its pair form: fuse's loop with the stage agenda built
    as the list of pairs (a, b) of hat segments, b from a onward, and
    each pair asked of engine.decide. The per-segment scan of
    MixingEngine.deciding_reduct must return the same reduct, or raise
    the same FusionExhaustedError."""
    model, config = engine.model, engine.config
    model.all_reducts(config.max_reducts)

    def holds(pair, y):
        return engine.decide(y, *pair) is not _SPLIT

    x, stage = engine.front.scope, 0
    while True:
        frozen = model.restrict(x, min(stage + 1, len(x)))
        pool = [z for z in (EMPTY, *model.sub_reducts(frozen)) if engine.in_hat(z)]
        agenda = [(a, b) for i, a in enumerate(pool) for b in pool[i:]]
        for _ in range(model.sub_mask(x).bit_count() + 1):
            bad = next((pair for pair in agenda if not holds(pair, x)), None)
            if bad is None:
                break
            for y in longest_first(model.basic(frozen, x)):
                if y != x and holds(bad, y):
                    x = y
                    break
            else:
                break
        if bad is not None:
            raise FusionExhaustedError(stage, partial=x)
        stage += 1
        if stage >= len(x) or (config.depth_budget is not None and stage > config.depth_budget):
            return x


def reference_bad_kernels(table, N, spend):
    """The Ramsey search as it was before its per-node trim: every node
    sets its tuple's bit in the class masks and the next node clears it,
    and every node calls spend() once. ramsey._bad_kernels must yield the
    same kernels and charge each N the same nodes, and a budget must stop
    both at the same node."""
    n, m = table.n, table.m
    if m <= n:
        # an m-set holds at most one n-tuple, so it is vacuously canonical
        yield None
        return
    tests = table.rows
    colors: list[int] = []
    classes: list[int] = []  # per color, the mask of tuples holding it
    equal = [0]              # equal[k]: equal-color pairs below tuple k
    k = visited = 0
    while True:
        total = comb(N, n)
        if k == len(colors) < total:
            colors.append(-1)
            equal.append(0)
            table.fill(k + 1)
        while 0 <= k < total:
            color = colors[k]
            if color >= 0:
                classes[color] ^= 1 << k
                if not classes[color]:
                    classes.pop()
            color += 1
            if color > len(classes):
                colors[k] = -1
                k -= 1
                continue
            spend()
            visited += 1
            colors[k] = color
            if color == len(classes):
                classes.append(1 << k)
                pairs = equal[k]
            else:
                pairs = equal[k] | classes[color] << (k * (k - 1) // 2)
                classes[color] |= 1 << k
            for mask, patterns in tests[k]:
                if pairs & mask in patterns:
                    break
            else:
                equal[k + 1] = pairs
                k += 1
                if k == len(colors) < total:
                    colors.append(-1)
                    equal.append(0)
                    table.fill(k + 1)
        if k < 0:
            yield None
            return
        yield tuple(colors)
        N += 1
        spend(visited)


def reference_lemma_suite(model, coloring, witness, phi, config=DEFAULT_CONFIG):
    """canonize.lemma_suite as it was before its checks asked only where a
    violation can come from: every pair of phi-equal hat segments by an
    all-pairs scan, the members x members prefix and colour scans, and
    one mixes call per interior base, hat segment t and live extension at
    t's depth. The engine's report must equal this one byte for byte."""
    engine = MixingEngine(model, coloring, config)
    members = engine.table.members_in(engine.real_bits(witness))
    hat_w = engine.hat_below(witness)
    interior = engine.interior_below(witness)
    values: dict[Approx, tuple] = {a: eval_inner(model, phi, a) for a in hat_w}
    depths = {a: model.depth(witness, a) for a in hat_w}

    mix_violations = []
    mix_gaps = 0
    for i, s in enumerate(hat_w):
        for t in hat_w[i + 1:]:
            if values[s] != values[t]:
                continue
            verdict = engine.decide(witness, s, t)
            if verdict.kind == SEPARATES:
                mix_violations.append({"s": s, "t": t})
            elif verdict.kind == UNDECIDED:
                mix_gaps += 1

    def strict_prefix(s: Approx, t: Approx) -> bool:
        vs, vt = values[s], values[t]
        return len(vs) < len(vt) and vt[: len(vs)] == vs

    prefix_violations = [
        {"s": s, "t": t} for s in members for t in members if strict_prefix(s, t)
    ]
    prefix_info = sum(1 for s in interior for t in hat_w if strict_prefix(s, t))

    color_violations = []
    for i, s in enumerate(members):
        for t in members[i + 1:]:
            if coloring(s) == coloring(t) and values[s] != values[t]:
                color_violations.append({"s": s, "t": t})

    class_violations = []
    for base in interior:
        pos = len(base)
        at_depth: dict[object, list[Approx]] = {}
        for p in engine.live_extensions(base, witness):
            at_depth.setdefault(depths[p], []).append(p)
        for t in hat_w:
            # The extensions at t's depth mixing with t, each asked once.
            mixed = [p for p in at_depth.get(depths[t], ()) if engine.mixes(witness, t, p)]
            vals = [model.apply_selector(phi.selectors[pos], p.blocks[-1]) for p in mixed]
            for i, p in enumerate(mixed):
                for q, vq in zip(mixed[i + 1:], vals[i + 1:]):
                    if vals[i] != vq:
                        class_violations.append({"t": t, "p": p, "q": q})

    first = mix_violations or prefix_violations or color_violations or class_violations
    return _report(
        "lemma_suite", "fail" if first else "pass", witness=first[0] if first else None,
        equal_values_mix={"violations": mix_violations, "undecided_pairs": mix_gaps},
        prefix_freeness={"violations": prefix_violations, "interior_prefix_events": prefix_info},
        color_respects_phi={"violations": color_violations},
        class_uniqueness={"violations": class_violations},
    )


def reference_hat(model, front):
    """The hat as it was built per call: every initial segment of a
    member, sorted by approx_sort_key."""
    seen = set()
    for m in front.members:
        seen.update(model.segments(m))
    return tuple(sorted(seen, key=approx_sort_key))


def reference_members_below(model, front, y):
    """The mask of the members <= y, one leq_fin per member."""
    return sum(1 << i for i, m in enumerate(front.members) if model.leq_fin(m, y))


def reference_class_ids(model, name, pos, members):
    """Per member, the id of the selector's value on its block at pos, or
    of () when the member is shorter; equal values share an id."""
    return kernel_ids(
        model.apply_selector(name, m.blocks[pos]) if pos < len(m) else () for m in members
    )


def refuse_pairwise_hook(monkeypatch):
    """Make every space's pairwise _leq_fin raise for the rest of the
    test, so that any engine path still asking it fails."""

    def refuse(self, s, t):
        raise AssertionError("the engine asked the pairwise _leq_fin")

    for cls in (EllentuckModel, FinModel, TreeModel):
        monkeypatch.setattr(cls, "_leq_fin", refuse)


# ---------------------------------------------------------------------------
# Drawn instances.

@st.composite
def fin_instances(draw):
    atoms = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(4, atoms)))
    order = draw(st.permutations(range(atoms)))
    cuts = sorted(draw(st.sets(st.integers(1, atoms - 1), min_size=k - 1, max_size=k - 1))) if k > 1 else []
    bounds = [0, *cuts, atoms]
    levels = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    cap = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=k)))
    return build_fin(levels=levels, span_cap=cap)


# Trees with b in {2, 3}, as high as TREE_NODES nodes allow: heights
# 1-3 at b=2 and 1-2 at b=3, at most 74 reducts.
TREE_NODES = 15


@st.composite
def tree_instances(draw):
    b = draw(st.sampled_from((2, 3)))
    heights = [h for h in range(1, TREE_NODES) if (b ** (h + 1) - 1) // (b - 1) <= TREE_NODES]
    return build_tree(b, draw(st.sampled_from(heights)))


def ellentuck_instances(max_atoms: int = 6):
    """Ellentuck with N = 1..max_atoms; N = 6 has 63 reducts."""
    return st.integers(min_value=1, max_value=max_atoms).map(build_ellentuck)
