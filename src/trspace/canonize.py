"""Canonization of front colorings by inner maps.

An inner map assigns one selector per member position; evaluating it on
a member keeps, projects or drops each block and the canonical claim is
the biconditional f(s) = f(t) iff phi(s) = phi(t) on the front members
of the witness reduct. The pipeline mirrors the mixing analysis: first
shrink to a reduct deciding every pair of hat segments, the members
included, then uniformize one selector per position against the mixing
kernel, verify, and grow the witness while verification holds. The
brute-force oracle enumerates selector tuples over whole reducts and is
used to cross-validate.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BudgetExceededError,
    DomainError,
    FusionExhaustedError,
    NoInnerWitnessError,
)
from .fronts import Coloring, front_table
from .mixing import SEPARATES, UNDECIDED, MixingEngine
from .model import (
    Approx,
    Config,
    DEFAULT_CONFIG,
    PropertyOracle,
    SpaceModel,
    _bits,
    _report,
    a4star_search,
    first_mismatch,
    fuse,
    kernel_ids,
    longest_first,
)
from .reportio import approx_to_json, to_jsonable

# Deciding starts tried after the first before the fallback.
RETRIES = 3


@dataclass(frozen=True)
class InnerMap:
    """Per-position selectors; drop components vanish from the output."""

    selectors: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.selectors)

    def to_json(self) -> list[str]:
        return list(self.selectors)


def eval_inner(model: SpaceModel, phi: InnerMap, t: Approx) -> tuple:
    """phi(t): nonempty selector outputs in prefix order."""
    if len(t) > len(phi.selectors):
        raise DomainError(
            f"approximation of length {len(t)} exceeds the map's {len(phi.selectors)} positions"
        )
    out = []
    for name, block in zip(phi.selectors, t.blocks):
        v = model.apply_selector(name, block)
        if v:
            out.append(tuple(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# Verification and the brute-force oracle.

def verify_canonical(
    model: SpaceModel,
    x: Approx,
    phi: InnerMap,
    coloring: Coloring,
) -> tuple[bool, Optional[tuple[Approx, Approx]]]:
    """Check f(s) = f(t) iff phi(s) = phi(t) over the front members
    realizable in x; returns the first violating pair in member order."""
    below = list(_bits(front_table(model, coloring.front).members_below(x)))
    members = [coloring.front.members[i] for i in below]
    values = [eval_inner(model, phi, m) for m in members]
    # Only a disagreement of the kernels needs the pair scan, to name the
    # first violator.
    if kernel_ids(coloring.colors[i] for i in below) == kernel_ids(values):
        return True, None
    pair = first_mismatch(members, lambda p, q: coloring(p) == coloring(q), values)
    return pair is None, pair


def oracle_canonize(
    model: SpaceModel,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
) -> tuple[tuple[Approx, InnerMap], ...]:
    """Exhaust the reducts of the front's scope and selector tuples; keep
    every verifying pair of maximal witness size. Reducts carrying no
    member are skipped, their verification would be vacuous.

    Decided on class ids: per position and selector, members share an id
    when the selector gives equal values on their blocks there, or when
    both are shorter than the position. Precondition: every selector but
    drop returns a nonempty tuple on every block, so phi(p) = phi(q)
    exactly when the ids of phi's selectors agree at every position. A
    selector serves a position below x only if it gives each color one
    id there, and x verifies phi exactly when the id tuples are as many
    as the colors. The ids and the members below each reduct are read
    off the front's table, shared by every coloring of the front."""
    family = model.selector_names()
    arity = coloring.front.arity()
    model.all_reducts(config.max_reducts)
    reducts = model.sub_reducts(coloring.front.scope)
    total = len(reducts) * len(family) ** arity
    if total > config.max_kernels:
        raise BudgetExceededError(
            f"oracle would enumerate {total} candidates, budget is {config.max_kernels}"
        )
    table = front_table(model, coloring.front)
    ids = [[(name, table.class_ids(pos, name)) for name in family] for pos in range(arity)]

    # The reducts arrive longest first, so the hits of the largest size
    # come in key order; each reduct's maps are sorted as found.
    hits: list[tuple[Approx, InnerMap]] = []
    best = -1
    for x in longest_first(reducts):
        if len(x) < best:
            break
        below = list(_bits(table.members_below(x)))
        if not below:
            continue
        colors = [coloring.colors[i] for i in below]
        classes = len(set(colors))
        usable = []
        for per_selector in ids:
            cols = ((name, [column[i] for i in below]) for name, column in per_selector)
            usable.append([(n, col) for n, col in cols if len(set(zip(colors, col))) == classes])
        found = []
        for choice in itertools.product(*usable):
            # A map with no positions (a rank-0 front) sends its member to ().
            tuples = set(zip(*(col for _, col in choice))) if choice else {()}
            if len(tuples) == classes:
                found.append(tuple(name for name, _ in choice))
        if found:
            if len(x) > best:
                hits, best = [], len(x)
            hits.extend((x, InnerMap(selectors)) for selectors in sorted(found))
    return tuple(hits)


def oracle_agreement(
    model: SpaceModel,
    coloring: Coloring,
    witness: Approx,
    phi: InnerMap,
    oracle_hits: tuple[tuple[Approx, InnerMap], ...],
) -> dict:
    """Cross-validation: the engine witness must verify under the same
    check the oracle uses, and some maximal oracle witness must induce
    the same kernel on the members the two witnesses share."""
    ok, cex = verify_canonical(model, witness, phi, coloring)
    agree = False
    common_best = 0
    if ok:
        table = front_table(model, coloring.front)
        mine = table.members_below(witness)
        ours = {m: eval_inner(model, phi, m) for m in table.members_in(mine)}
        for x_o, phi_o in oracle_hits:
            common = table.members_in(mine & table.members_below(x_o))
            theirs = [eval_inner(model, phi_o, m) for m in common]
            if kernel_ids(ours[m] for m in common) == kernel_ids(theirs):
                agree = True
                common_best = max(common_best, len(common))
    return {
        "agrees": bool(ok and agree and oracle_hits),
        "reverified": ok,
        "oracle_witnesses": len(oracle_hits),
        "oracle_max_size": len(oracle_hits[0][0]) if oracle_hits else 0,
        "common_members": common_best,
    }


# ---------------------------------------------------------------------------
# The pipeline.

@dataclass
class CanonReport:
    witness: Approx
    phi: InnerMap
    verdict: str
    oracle_agreement: Optional[dict]
    stats: dict

    def to_json(self) -> dict:
        return {
            "witness": approx_to_json(self.witness),
            "phi": self.phi.to_json(),
            "verdict": self.verdict,
            "oracle_agreement": to_jsonable(self.oracle_agreement),
            "stats": to_jsonable(self.stats),
        }


def _position_oracle(
    engine: MixingEngine, z0: Approx, pos: int, name: str
) -> PropertyOracle:
    """Single-form fuse property: on the candidate reduct, the selector's
    kernel on the surviving hat extensions of every length-pos base
    matches the mixing kernel. Bases that fell out of the hat are
    exempt."""
    model = engine.model

    def check(a: Approx, y: Approx) -> bool:
        if not engine.live_bits(y, a):
            return True
        exts = engine.live_extensions(a, y)
        values = [model.apply_selector(name, p.blocks[-1]) for p in exts]
        return first_mismatch(exts, lambda p, q: engine.mixes(z0, p, q), values) is None

    def domain(a: Approx) -> bool:
        return len(a) == pos and engine.in_hat(a) and a not in engine.front.positions

    return PropertyOracle(check=check, domain=domain)


def _assemble(engine: MixingEngine, z0: Approx, config: Config) -> tuple[Approx, InnerMap]:
    """Uniformize one selector per position below the deciding reduct.

    A selector that matches the mixing kernel on the current reduct as
    it stands wins in family order; shrinking is a last resort, and then
    the selector keeping the largest reduct wins, so the drop component
    cannot steal a position by fusing down to a vacuous witness.
    """
    model = engine.model
    family = model.selector_names()
    arity = engine.front.arity()
    z = z0
    names: list[str] = []
    for pos in range(arity):
        oracles = [(name, _position_oracle(engine, z0, pos, name)) for name in family]
        bases = [a for a in engine.interior_below(z) if len(a) == pos]
        chosen = next(
            (name for name, oracle in oracles if all(oracle.check(a, z) for a in bases)), None
        )
        if chosen is None:
            fused = []
            for rank, (name, oracle) in enumerate(oracles):
                try:
                    z_new = fuse(model, oracle, start=z, config=config)
                except FusionExhaustedError:
                    continue
                fused.append((-len(z_new), rank, z_new, name))
            if not fused:
                raise NoInnerWitnessError(
                    f"no selector fuses at position {pos} below the deciding reduct"
                )
            fused.sort(key=lambda item: item[:2])
            _, _, z, chosen = fused[0]
        names.append(chosen)
    return z, InnerMap(tuple(names))


def _grow(model: SpaceModel, coloring: Coloring, x: Approx, phi: InnerMap) -> Approx:
    """Largest reduct between x and the front's scope on which the map
    still verifies."""
    best = x
    for g in longest_first(model.between(x, coloring.front.scope)):
        if len(g) <= len(best):
            break
        ok, _ = verify_canonical(model, g, phi, coloring)
        if ok:
            best = g
            break
    return best


def _fallback(model: SpaceModel, coloring: Coloring) -> Optional[tuple[Approx, InnerMap]]:
    """Deterministic last resort: a member taken as its own reduct
    carries that member alone, where the all-drop map verifies."""
    arity = coloring.front.arity()
    phi = InnerMap(("drop",) * arity)
    table = front_table(model, coloring.front)
    for x in table.members_in(table.members_below(model.full)):
        ok, _ = verify_canonical(model, x, phi, coloring)
        if ok:
            return x, phi
    return None


def canonize(
    model: SpaceModel,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
    oracle: bool = False,
) -> CanonReport:
    """Find a witness reduct and an inner map canonical for the coloring.

    Stage A fuses to a reduct deciding every pair of hat segments, stage B
    uniformizes one selector per position against the mixing kernel,
    then the map is verified and the witness grown while verification
    holds. Failed attempts retry from the next smaller deciding start, up
    to RETRIES times; after that the deterministic single-member fallback
    keeps the result honest and the stats record the degradation.
    """
    engine = MixingEngine(model, coloring, config)
    stats: dict = {
        "selector_family": list(model.selector_names()),
        "arity": coloring.front.arity(),
        "retries_used": 0,
        "fallback": False,
    }
    if model.family_limited:
        stats["family_limited"] = True

    try:
        z0 = engine.deciding_reduct()
    except FusionExhaustedError as err:
        z0 = err.partial
        stats["stage_a_exhausted"] = True
    stats["deciding_reduct_size"] = len(z0)

    starts = itertools.chain((z0,), (
        y for y in longest_first(model.sub_reducts(z0))
        if y != z0 and engine.real_bits(y)
    ))
    witness = phi = None
    for attempt, start in enumerate(itertools.islice(starts, RETRIES + 1)):
        stats["retries_used"] = attempt
        try:
            cand_x, cand_phi = _assemble(engine, start, config)
        except NoInnerWitnessError:
            continue
        ok, _ = verify_canonical(model, cand_x, cand_phi, coloring)
        if ok:
            witness, phi = cand_x, cand_phi
            break
    if witness is None:
        fb = _fallback(model, coloring)
        if fb is None:
            report = CanonReport(
                witness=coloring.front.scope,
                phi=InnerMap(("drop",) * coloring.front.arity()),
                verdict="undecided",
                oracle_agreement=None,
                stats=stats,
            )
            return report
        witness, phi = fb
        stats["fallback"] = True

    witness = _grow(model, coloring, witness, phi)
    stats["witness_size"] = len(witness)
    stats["members_on_witness"] = engine.real_bits(witness).bit_count()
    agreement = None
    if oracle:
        hits = oracle_canonize(model, coloring, config)
        agreement = oracle_agreement(model, coloring, witness, phi, hits)
        stats["witness_is_max_size"] = (
            bool(hits) and len(witness) == len(hits[0][0])
        )
    return CanonReport(
        witness=witness,
        phi=phi,
        verdict="pass",
        oracle_agreement=agreement,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Lemma battery over a canonization result.

def lemma_suite(
    model: SpaceModel,
    coloring: Coloring,
    witness: Approx,
    phi: InnerMap,
    config: Config = DEFAULT_CONFIG,
) -> dict:
    """Finite checks of the structure lemmas on a canonization witness.

    equal-values-mix: equal phi values on interior segments force mixing
    (separation is a violation, lost pools are counted as gaps). Each hat
    segment is asked only against the later segments of its own value.
    prefix-freeness: over distinct members no phi value is a strict
    prefix of another; the same event on interior segments is reported
    as information only, the finite empty tuple is a prefix of
    everything. The members x members scan runs only when some member
    value has a strict prefix among the member values; the interior
    events are counted per hat segment t, over the strict prefixes of
    phi(t). color-respects-phi: f-equal members get phi-equal values;
    the pair scan runs only when some color of the members carries two
    values. class-uniqueness: at one depth, extensions of a common base
    mixed with one segment share a selector value. Mixing is asked only
    at the depths whose live extensions of the base carry two values.
    Every violation list keeps the order of the plain pair scans.
    """
    engine = MixingEngine(model, coloring, config)
    members = engine.table.members_in(engine.real_bits(witness))
    hat_w = engine.hat_below(witness)
    interior = engine.interior_below(witness)
    values: dict[Approx, tuple] = {a: eval_inner(model, phi, a) for a in hat_w}
    depths = {a: model.depth(witness, a) for a in hat_w}

    # Per value, the hat segments not yet walked, in hat order: the head
    # of s's group is s itself, the rest are the later segments of its value.
    unwalked: dict[tuple, list[Approx]] = {}
    for a in hat_w:
        unwalked.setdefault(values[a], []).append(a)
    mix_violations = []
    mix_gaps = 0
    for s in hat_w:
        later = unwalked[values[s]]
        del later[0]
        for t in later:
            verdict = engine.decide(witness, s, t)
            if verdict.kind == SEPARATES:
                mix_violations.append({"s": s, "t": t})
            elif verdict.kind == UNDECIDED:
                mix_gaps += 1

    def strict_prefix(s: Approx, t: Approx) -> bool:
        vs, vt = values[s], values[t]
        return len(vs) < len(vt) and vt[: len(vs)] == vs

    member_values = {values[m] for m in members}
    prefix_violations = []
    if any(v[:k] in member_values for v in member_values for k in range(len(v))):
        prefix_violations = [
            {"s": s, "t": t} for s in members for t in members if strict_prefix(s, t)
        ]
    interior_values = Counter(values[s] for s in interior)
    prefix_info = sum(
        interior_values[values[t][:k]] for t in hat_w for k in range(len(values[t]))
    )

    values_of_color: dict[int, set] = {}
    for m in members:
        values_of_color.setdefault(coloring(m), set()).add(values[m])
    color_violations = []
    if any(len(vs) > 1 for vs in values_of_color.values()):
        for i, s in enumerate(members):
            for t in members[i + 1:]:
                if coloring(s) == coloring(t) and values[s] != values[t]:
                    color_violations.append({"s": s, "t": t})

    class_violations = []
    for base in interior:
        exts = engine.live_extensions(base, witness)
        if not exts:
            continue
        selector = phi.selectors[len(base)]
        at_depth: dict[object, list[tuple[Approx, tuple]]] = {}
        for p in exts:
            value = model.apply_selector(selector, p.blocks[-1])
            at_depth.setdefault(depths[p], []).append((p, value))
        # Only a depth whose extensions carry two values can split a class.
        split = {d: ps for d, ps in at_depth.items() if len({v for _, v in ps}) > 1}
        if not split:
            continue
        for t in hat_w:
            # The extensions at t's depth mixing with t, each asked once.
            mixed = [(p, v) for p, v in split.get(depths[t], ()) if engine.mixes(witness, t, p)]
            for i, (p, vp) in enumerate(mixed):
                for q, vq in mixed[i + 1:]:
                    if vp != vq:
                        class_violations.append({"t": t, "p": p, "q": q})

    first = mix_violations or prefix_violations or color_violations or class_violations
    return _report(
        "lemma_suite", "fail" if first else "pass", witness=first[0] if first else None,
        equal_values_mix={"violations": mix_violations, "undecided_pairs": mix_gaps},
        prefix_freeness={"violations": prefix_violations, "interior_prefix_events": prefix_info},
        color_respects_phi={"violations": color_violations},
        class_uniqueness={"violations": class_violations},
    )


# ---------------------------------------------------------------------------
# Maximality and the recoloring probe.

def maximality_check(
    model: SpaceModel,
    coloring: Coloring,
    phi: InnerMap,
    phi_alt: InnerMap,
    config: Config = DEFAULT_CONFIG,
) -> dict:
    """Below a common verifying reduct inside the front's scope, find one
    where the alternative map's component outputs sit inside the
    reference map's outputs.

    The common reduct must carry at least two members: verification on
    a single member holds for every map, so admitting it would let any
    alternative through the precondition."""
    model.all_reducts(config.max_reducts)
    table = front_table(model, coloring.front)
    common = None
    for y in longest_first(model.sub_reducts(coloring.front.scope)):
        if table.members_below(y).bit_count() < 2:
            continue
        ok1, _ = verify_canonical(model, y, phi, coloring)
        ok2, _ = verify_canonical(model, y, phi_alt, coloring)
        if ok1 and ok2:
            common = y
            break
    if common is None:
        raise DomainError(
            "the maps have no common verifying reduct; rejected as input"
        )
    for z in longest_first(model.sub_reducts(common)):
        members = table.members_in(table.members_below(z))
        if not members:
            continue
        contained = all(
            set(model.apply_selector(phi_alt.selectors[i], m.blocks[i]))
            <= set(model.apply_selector(phi.selectors[i], m.blocks[i]))
            for m in members
            for i in range(min(len(m), len(phi.selectors), len(phi_alt.selectors)))
        )
        if contained:
            return _report("maximality", "pass", witness=z, common=common)
    return _report("maximality", "undecided", common=common)


def property_p_check(
    model: SpaceModel,
    coloring: Coloring,
    config: Config = DEFAULT_CONFIG,
) -> dict:
    """Recoloring probe on equal-length interior pairs: when no
    extension of one segment mixes into a selector-equal extension of
    the other anywhere below a reduct, that reduct must hide a
    separating one."""
    engine = MixingEngine(model, coloring, config)
    z0 = engine.deciding_reduct()
    interior = engine.interior_below(z0)
    family = model.selector_names()
    # Per segment, the A.4* selector of its mixing classes at z0, or None
    # when the search finds none or asks about an extension outside the
    # hat; each segment is searched once.
    selector: dict[Approx, Optional[str]] = {}

    def selector_of(a: Approx) -> Optional[str]:
        if a not in selector:
            try:
                found = a4star_search(
                    model, a, z0, lambda p: _mix_class(engine, z0, a, p), family, config,
                )
            except DomainError:
                found = None
            selector[a] = None if found is None else found[1]
        return selector[a]

    violations = []
    skipped = 0
    checked = 0
    for i, s in enumerate(interior):
        for t in interior[i + 1:]:
            if len(s) != len(t):
                continue
            sel_s = selector_of(s)
            sel_t = selector_of(t) if sel_s is not None else None
            if sel_t is None:
                skipped += 1
                continue
            for z in model.sub_reducts(z0):
                t_exts = engine.live_extensions(t, z)
                s_exts = engine.live_extensions(s, z)
                if not t_exts or not s_exts:
                    continue
                any_hit = any(
                    engine.mixes(z0, p, q)
                    and model.apply_selector(sel_t, p.blocks[-1])
                    == model.apply_selector(sel_s, q.blocks[-1])
                    for p in t_exts
                    for q in s_exts
                )
                if any_hit:
                    continue
                checked += 1
                # A separating reduct below z: admissible, no equal pair.
                if not engine.pool(z, s, t) or engine.mixes(z, s, t):
                    violations.append({"s": s, "t": t, "z": z})
    return _report(
        "property_p", "fail" if violations else "pass",
        witness=violations[0] if violations else None,
        stats={"zero_recolorings_checked": checked, "pairs_skipped": skipped},
        violations=violations,
    )


def _mix_class(engine: MixingEngine, z0: Approx, base: Approx, p: Approx):
    """Class label of an extension under the mixing relation at z0:
    the least extension of the base it mixes with."""
    model = engine.model
    for q in model.extensions(base, z0):
        if engine.in_hat(q) and engine.mixes(z0, p, q):
            return q
    return p


def avoidance_check(model: SpaceModel, s: Approx, x: Approx) -> dict:
    """With at least two extensions, each one can be dodged by a reduct
    in [s, x]; a single extension leaves only the trivial basic set."""
    exts = model.extensions(s, x)
    # The first extension no reduct of [s, x] with extensions dodges.
    stuck = next((
        v for v in exts if len(exts) > 1 and not any(
            model.extensions(s, y) and v not in model.extensions(s, y) for y in model.basic(s, x)
        )
    ), None)
    return _report(
        "avoidance", "pass" if stuck is None else "fail", witness=stuck,
        single_extension=len(exts) == 1,
    )
