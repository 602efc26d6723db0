"""Outside-in tracer: wraps the engine's entry points from outside.

Nothing in the engine knows it is traced. `install` replaces each seam
(a module function, a method, or a subclass hook) with a wrapper, in
every `trspace` module that holds it under some name, so that a name
imported into another module (`fuse` in `mixing` and `canonize`, `lx1`
in `mixing`) is traced there too. `uninstall` puts the originals back.

Every seam aggregates calls, outermost total time and self time (its
time minus the time of traced calls beneath it). Hot relations stop
there, because a single round makes millions of them. Coarse seams also
record one span each, carrying the id of the enclosing span and of the
job, all in memory until `dump` writes them once.

A seam missing from the engine (renamed or removed by a later change)
is listed in `absent` and its metrics read as zero.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Seam:
    module: str                 # trspace submodule that defines the owner
    path: str                   # "fn", "Class.method" or "*._hook" for subclass hooks
    name: str                   # metric stem, "<layer>.<what>"
    span: bool = False          # coarse call: record one span per call
    by_parent: bool = False     # also count calls per enclosing seam name


SEAMS = (
    # spaces: the per-space hooks and instance builders
    Seam("spaces", "*._leq_fin", "spaces.leq_fin"),
    Seam("spaces", "*._extension_blocks", "spaces.extension_blocks"),
    Seam("spaces", "build_ellentuck", "spaces.build", span=True),
    Seam("spaces", "build_fin", "spaces.build", span=True),
    Seam("spaces", "build_tree", "spaces.build", span=True),
    Seam("spaces", "closure", "spaces.closure"),
    Seam("spaces", "lx1", "spaces.closure"),
    # model: shared relations, axioms, fusion
    Seam("model", "SpaceModel.all_reducts", "model.all_reducts"),
    Seam("model", "SpaceModel.leq_fin", "model.leq_fin"),
    Seam("model", "SpaceModel.restrict", "model.restrict"),
    Seam("model", "SpaceModel.sub_reducts", "model.sub_reducts"),
    Seam("model", "SpaceModel.basic", "model.basic"),
    Seam("model", "SpaceModel.extension_blocks", "model.extension_blocks"),
    Seam("model", "SpaceModel.depth", "model.depth"),
    Seam("model", "SpaceModel.approximations", "model.approximations"),
    Seam("model", "check_axioms", "model.check_axioms", span=True),
    Seam("model", "pigeonhole_A4", "model.pigeonhole_A4", span=True),
    Seam("model", "fuse", "model.fuse", span=True, by_parent=True),
    Seam("model", "PropertyOracle.holds", "model.fuse.holds"),
    # fronts
    Seam("fronts", "uniform_front", "fronts.uniform_front", span=True),
    Seam("fronts", "hat", "fronts.hat", span=True),
    Seam("fronts", "color_front", "fronts.color", span=True),
    Seam("fronts", "generated_coloring", "fronts.color", span=True),
    # mixing
    Seam("mixing", "MixingEngine.__init__", "mixing.engine_build", span=True),
    Seam("mixing", "MixingEngine.decide", "mixing.decide"),
    Seam("mixing", "MixingEngine.pool", "mixing.pool", by_parent=True),
    Seam("mixing", "mixing_table", "mixing.mixing_table", span=True),
    Seam("mixing", "transitivity_check", "mixing.transitivity_check", span=True),
    Seam("mixing", "weak_mixing_detect", "mixing.weak_mixing_detect", span=True),
    # canonize: the pipeline stages named in the roadmap
    Seam("canonize", "canonize", "canonize.canonize", span=True),
    Seam("canonize", "_assemble", "canonize.stage_b", span=True),
    Seam("canonize", "_grow", "canonize.grow", span=True),
    Seam("canonize", "oracle_canonize", "canonize.oracle", span=True),
    Seam("canonize", "verify_canonical", "canonize.verify"),
    Seam("canonize", "lemma_suite", "canonize.lemma_suite", span=True),
    # ramsey
    Seam("ramsey", "canonical_ramsey_number", "ramsey.canonical_ramsey_number", span=True),
    Seam("ramsey", "restricted_growth_strings", "ramsey.kernels"),
    # reportio and cli
    Seam("reportio", "canonical_json", "reportio.canonical_json", span=True),
    Seam("cli", "main", "cli.main", span=True),
)

LAYERS = ("spaces", "model", "fronts", "mixing", "canonize", "ramsey", "reportio", "cli")


class Tracer:
    """Call aggregates and spans for one traced phase."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.parent_calls: dict[tuple[str, str], int] = {}
        self.parent_total: dict[tuple[str, str], float] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.report_bytes = 0
        self.job: Optional[str] = None
        # traced calls in progress: [name, child time, span id, start]
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._span_ids = 0
        self._restore: list[tuple[object, str, object]] = []
        self._enumerated = weakref.WeakSet()

    # ---- recording -------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        span_id = None
        if span:
            self._span_ids += 1
            span_id = self._span_ids
        frame = [name, 0.0, span_id, time.perf_counter()]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame: list, by_parent: bool) -> None:
        end = time.perf_counter()
        name, child, span_id, start = frame
        elapsed = end - start
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        depth = self._open[name] - 1
        self._open[name] = depth
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - child
        if depth == 0:
            self.total[name] = self.total.get(name, 0.0) + elapsed
        if by_parent:
            key = (name, parent[0] if parent is not None else "")
            self.parent_calls[key] = self.parent_calls.get(key, 0) + 1
            self.parent_total[key] = self.parent_total.get(key, 0.0) + elapsed
        if span_id is not None:
            parent_span = next(
                (f[2] for f in reversed(stack) if f[2] is not None), None
            )
            self.spans.append((span_id, parent_span, self.job, name, start, end, elapsed - child))

    def run_job(self, job_id: str, fn: Callable[[], object]):
        """Run one benchmark job as a root span; returns its result."""
        self.job = job_id
        frame = self._enter("job", True)
        try:
            return fn()
        finally:
            self._exit(frame, False)
            self.job = None

    # ---- wrapping --------------------------------------------------------

    def _wrapper(self, seam: Seam, fn: Callable) -> Callable:
        tracer = self
        name, span, by_parent = seam.name, seam.span, seam.by_parent

        if inspect.isgeneratorfunction(fn):
            # Generators are counted per item yielded; their run time
            # belongs to the caller that drives them.
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tracer.items[name] = tracer.items.get(name, 0) + 1
                    yield item

            return gen_wrapper

        if seam.path == "SpaceModel.all_reducts":
            # The first call per model enumerates the reducts; later calls
            # return the stored tuple and count as a model relation.
            def reducts_wrapper(model, *args, **kwargs):
                first = model not in tracer._enumerated
                if first:
                    tracer._enumerated.add(model)
                frame = tracer._enter("spaces.enumerate_reducts" if first else name, first)
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    tracer._exit(frame, False)

            return reducts_wrapper

        if seam.path == "check_axioms":
            def axioms_wrapper(model, axiom, *args, **kwargs):
                frame = tracer._enter(f"{name}.{str(axiom).upper()}", True)
                try:
                    return fn(model, axiom, *args, **kwargs)
                finally:
                    tracer._exit(frame, False)

            return axioms_wrapper

        if seam.path == "canonical_json":
            def json_wrapper(*args, **kwargs):
                frame = tracer._enter(name, True)
                try:
                    text = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, False)
                tracer.report_bytes += len(text.encode())
                return text

            return json_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, by_parent)

        return wrapper

    def _owners(self, package: str, seam: Seam) -> list[tuple[object, str]]:
        """(object, attribute) pairs whose attribute is this seam's target."""
        module = sys.modules[f"{package}.{seam.module}"]
        head, _, attr = seam.path.rpartition(".")
        if head == "*":
            base = getattr(sys.modules.get(f"{package}.model"), "SpaceModel", None)
            return [
                (cls, attr) for cls in vars(module).values()
                if inspect.isclass(cls) and base is not None and issubclass(cls, base)
                and cls.__module__ == module.__name__ and attr in vars(cls)
            ]
        if head:
            cls = getattr(module, head, None)
            return [(cls, attr)] if cls is not None and attr in vars(cls) else []
        fn = getattr(module, attr, None)
        if fn is None:
            return []
        # the defining module and every module that imported the name
        return [
            (mod, key)
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
            for key, value in list(vars(mod).items())
            if value is fn
        ]

    def install(self, package: str = "trspace") -> None:
        for seam in SEAMS:
            if f"{package}.{seam.module}" not in sys.modules:
                continue  # a module this workload never imports
            owners = self._owners(package, seam)
            if not owners:
                self.absent.append(f"{seam.module}.{seam.path}")
                continue
            for owner, attr in owners:
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(seam, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- results ---------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced phase, every name always present."""
        calls, total, own = self.calls, self.total, self.self_time

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        kernels = self.items.get("ramsey.kernels", 0)
        ramsey_s = total.get("ramsey.canonical_ramsey_number", 0.0)
        out = {
            "spaces.leq_fin.calls": calls.get("spaces.leq_fin", 0),
            "spaces.leq_fin.self_s": own.get("spaces.leq_fin", 0.0),
            "spaces.extension_blocks.calls": calls.get("spaces.extension_blocks", 0),
            "spaces.enumerate_reducts.self_s": own.get("spaces.enumerate_reducts", 0.0),
            "model.leq_fin.calls": calls.get("model.leq_fin", 0),
            "model.leq_fin.self_s": own.get("model.leq_fin", 0.0),
            "model.leq_fin.miss_ratio": ratio(
                calls.get("spaces.leq_fin", 0), calls.get("model.leq_fin", 0)),
            "model.restrict.calls": calls.get("model.restrict", 0),
            "model.restrict.self_s": own.get("model.restrict", 0.0),
            "model.sub_reducts.calls": calls.get("model.sub_reducts", 0),
            "model.basic.calls": calls.get("model.basic", 0),
            "model.basic.self_s": own.get("model.basic", 0.0),
            "model.check_axioms.A1.s": total.get("model.check_axioms.A1", 0.0),
            "model.check_axioms.A2.s": total.get("model.check_axioms.A2", 0.0),
            "model.check_axioms.A3.s": total.get("model.check_axioms.A3", 0.0),
            "model.pigeonhole_A4.calls": calls.get("model.pigeonhole_A4", 0),
            "model.pigeonhole_A4.s": total.get("model.pigeonhole_A4", 0.0),
            "model.fuse.calls": calls.get("model.fuse", 0),
            "model.fuse.s": total.get("model.fuse", 0.0),
            "model.fuse.holds_calls": calls.get("model.fuse.holds", 0),
            "fronts.uniform_front.s": total.get("fronts.uniform_front", 0.0),
            "fronts.hat.s": total.get("fronts.hat", 0.0),
            "fronts.color.s": total.get("fronts.color", 0.0),
            "mixing.engine_builds": calls.get("mixing.engine_build", 0),
            "mixing.decide.calls": calls.get("mixing.decide", 0),
            "mixing.decide.self_s": own.get("mixing.decide", 0.0),
            "mixing.decide.miss_ratio": ratio(
                self.parent_calls.get(("mixing.pool", "mixing.decide"), 0),
                calls.get("mixing.decide", 0)),
            "mixing.mixing_table.s": total.get("mixing.mixing_table", 0.0),
            "mixing.transitivity_check.s": total.get("mixing.transitivity_check", 0.0),
            "mixing.weak_mixing_detect.s": total.get("mixing.weak_mixing_detect", 0.0),
            "canonize.stage_a.s": self.parent_total.get(("model.fuse", "canonize.canonize"), 0.0),
            "canonize.stage_b.s": total.get("canonize.stage_b", 0.0),
            "canonize.grow.s": total.get("canonize.grow", 0.0),
            "canonize.oracle.s": total.get("canonize.oracle", 0.0),
            "canonize.verify.calls": calls.get("canonize.verify", 0),
            "canonize.lemma_suite.s": total.get("canonize.lemma_suite", 0.0),
            "ramsey.kernels": kernels,
            "ramsey.kernels_per_s": ratio(kernels, ramsey_s),
            "ramsey.canonical_ramsey_number.s": ramsey_s,
            "reportio.canonical_json.calls": calls.get("reportio.canonical_json", 0),
            "reportio.canonical_json.self_s": own.get("reportio.canonical_json", 0.0),
            "reportio.bytes": self.report_bytes,
            "cli.main.self_s": own.get("cli.main", 0.0),
            "trace.overhead_ratio": ratio(traced_s, untraced_s),
        }
        for layer, share in self.layer_shares().items():
            out[f"layer.{layer}.share"] = share
        return out

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the traced job time; the
        benchmark's own code and untraced engine code make up `other`."""
        jobs = self.total.get("job", 0.0)
        shares = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in shares:
                shares[layer] += t
        shares["other"] = jobs - sum(shares.values())
        return {k: (v / jobs if jobs else 0.0) for k, v in shares.items()}

    def dump(self, path) -> None:
        """Write the aggregates and every span, once."""
        payload = {
            "absent": self.absent,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "items": self.items,
            "spans": [
                dict(zip(("id", "parent", "job", "name", "start", "end", "self_s"), s))
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
