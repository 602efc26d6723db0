"""Benchmark of the trspace engine: four workloads, checked answers,
and an outside-in layer trace.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload runs in its own single-threaded process as a closed loop
with one job in flight. `--trace 0` repeats whole rounds of the job mix
until `--seconds` have passed and at least 100 jobs ran, then prints the
end-to-end metrics. `--trace 1` runs a warm-up round, one round
untraced and the same round traced, and prints the per-layer metrics.
The last line of standard output is one JSON object. See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 11
MIN_JOBS = 100
# The reference speed: the speed at which one calibration burst takes
# exactly this long.
CALIBRATION_REF_S = 2e-3

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, normalize  # noqa: E402

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True, order=True)
class _Block:
    """The calibration burst's stand-in for the engine's value types."""

    source: tuple
    atoms: tuple


def calibration_burst() -> float:
    """Seconds for a fixed piece of pure-Python work of the engine's
    kind: frozen dataclasses, tuple slices as dict keys, sorting, sets.

    The speed of a shared host drifts by tens of percent within seconds,
    and it moves this burst and the engine alike. Bursts between jobs
    measure the speed during each job, so times can be reported at a
    reference speed and runs made at different times compare.
    """
    # A collection here would scan the workload's live heap, which grows
    # with its caches; the burst measures the interpreter alone.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        blocks = [
            _Block((i % 7, i % 7 + 1 + i % 3), tuple(range(i % 5, i % 5 + 1 + i % 4)))
            for i in range(400)
        ]
        seen: dict = {}
        for i, block in enumerate(blocks):
            seen[tuple(blocks[i: i + 1 + i % 6])] = i
            seen[(block, block.atoms[:1])] = i
        seen[frozenset(b.atoms for b in sorted(blocks) if b.source[0] < 4)] = -1
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(times: list[float], bursts: list[float]) -> list[float]:
    """Each time divided by the speed during it: the mean of the bursts
    just before and just after it (bursts[i] and bursts[i + 1]), over
    CALIBRATION_REF_S."""
    return [
        t * 2 * CALIBRATION_REF_S / (before + after)
        for t, before, after in zip(times, bursts, bursts[1:])
    ]


def fresh_import(package: str = "trspace"):
    """Import the engine from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    return importlib.import_module(package)


def load_refs(seed: int) -> dict:
    """Reference answers by job id. Seeds without their own file are
    checked on the jobs that do not depend on the seed."""
    own = REFS / f"seed-{seed}.json"
    if own.is_file():
        payload = json.loads(own.read_text())
        return {**payload["fixed"], **payload["seeded"]}
    payload = json.loads((REFS / f"seed-{DEFAULT_SEED}.json").read_text())
    return dict(payload["fixed"])


def setup(workload: str, seed: int, refs=None, repeats: int = SETUP_REPEATS, bursts=None):
    """Import, build the inputs and load the references, `repeats` times;
    returns the last jobs and references and every set-up time. With a
    `bursts` list, a calibration burst follows every set-up."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib = fresh_import()
        jobs = WORKLOADS[workload](lib, seed)
        expected = load_refs(seed) if refs is None else refs
        times.append(time.perf_counter() - start)
        if bursts is not None:
            bursts.append(calibration_burst())
    return jobs, expected, times


def judge(job, out, expected: dict):
    """None when the job's result is right, else what is wrong."""
    problem = job.check(out)
    if problem:
        return problem
    ref = expected.get(job.id)
    if ref is not None and not job.compare(ref, normalize(job.answer(out))):
        return f"{job.id}: answer differs from the reference"
    return None


def run_job(job, call=None):
    """Run one job; returns (result, error, seconds)."""
    start = time.perf_counter()
    try:
        out = call(job.id, job.run) if call else job.run()
        error = None
    except Exception as err:  # a raising job is a failed job, the run goes on
        out, error = None, f"{job.id}: {type(err).__name__}: {err}"
    return out, error, time.perf_counter() - start


def run_round(jobs, expected, call=None, check_now=True, bursts=None):
    """One pass over the jobs: latencies, failures and answers. With a
    `bursts` list, a calibration burst follows every job."""
    latencies, failures, outs = [], [], []
    for job in jobs:
        out, error, dt = run_job(job, call)
        latencies.append(dt)
        if bursts is not None:
            bursts.append(calibration_burst())
        if check_now:
            error = error or judge(job, out, expected)
            if error:
                failures.append(error)
        else:
            outs.append((job, out, error))
    return latencies, failures, outs


def measure(workload: str, seed: int, seconds: float, refs=None, limit=None,
            min_jobs: int = MIN_JOBS) -> dict:
    """Untraced run: whole rounds until `seconds` and `min_jobs` are reached.

    Times in `metrics` are at the reference speed: each job and each
    set-up is bracketed by calibration bursts and divided by the speed
    during it (`at_reference_speed`). `raw` holds the same figures as
    measured, and `speed` is the run's median speed.
    """
    setup_bursts = [calibration_burst()]
    jobs, expected, setup_times = setup(workload, seed, refs, bursts=setup_bursts)
    jobs = jobs[:limit] if limit else jobs
    latencies, failures, bursts = [], [], [calibration_burst()]
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds or len(latencies) < min_jobs:
        lat, fail, _ = run_round(jobs, expected, bursts=bursts)
        latencies += lat
        failures += fail
        rounds += 1
    attempted = len(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timings(lat: list[float], setup_s: float) -> dict:
        return {
            "jobs_per_s": (attempted - len(failures)) / sum(lat),
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3
            if attempted > 1 else lat[0] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    setup_at_ref = at_reference_speed(setup_times, setup_bursts)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "rounds": rounds,
        "speed": statistics.median(bursts) / CALIBRATION_REF_S,
        "raw": timings(latencies, statistics.median(setup_times)),
        "metrics": timings(at_reference_speed(latencies, bursts), statistics.median(setup_at_ref)),
    }


def trace(workload: str, seed: int, refs=None, limit=None) -> dict:
    """Traced run: a warm-up round, one round untraced, then the same
    round traced.

    After the warm-up both timed rounds see warm caches where jobs share
    instances, and a warm interpreter everywhere. The traced round's
    answers are checked after the tracer is removed, so checking adds
    nothing to the counts.
    """
    jobs, expected, _ = setup(workload, seed, refs, repeats=1)
    jobs = jobs[:limit] if limit else jobs
    failures = run_round(jobs, expected)[1]
    untraced, fail, _ = run_round(jobs, expected)
    failures += fail
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, outs = run_round(jobs, expected, call=tracer.run_job, check_now=False)
    finally:
        tracer.uninstall()
    answers = {}
    for job, out, error in outs:
        error = error or judge(job, out, expected)
        if error:
            failures.append(error)
        else:
            answers[job.id] = normalize(job.answer(out))
    return {
        "attempted": 3 * len(jobs),
        "failed": len(failures),
        "failures": failures,
        "answers": answers,
        "tracer": tracer,
        "metrics": tracer.metrics(sum(untraced), sum(traced)),
    }


def _unit(name: str) -> str:
    if name.endswith("_ratio") or name.endswith(".share"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def result_line(result: dict, trace_on: bool) -> dict:
    units = {} if trace_on else END_TO_END_UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name) or _unit(name)}
            for name, value in result["metrics"].items()
        },
    }


def report(workload: str, seed: int, result: dict, trace_on: bool) -> None:
    print(f"workload {workload}, seed {seed}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, fail_ratio {result['failed'] / result['attempted']:.4f}"
          + ("" if trace_on else f", {result['rounds']} rounds, "
             f"median speed {result['speed']:.4f} (calibration burst / {CALIBRATION_REF_S * 1e3:g} ms)"))
    for problem in result["failures"][:10]:
        print(f"  FAILED {problem}")
    if not trace_on:
        print(f"  {'metric':36s} {'at ref speed':>14s} {'as measured':>14s}")
    for name, value in result["metrics"].items():
        unit = END_TO_END_UNITS.get(name) or _unit(name)
        raw = "" if trace_on else f" {result['raw'][name]:14.6g}"
        print(f"  {name:36s} {value:14.6g}{raw} {unit}")
    if trace_on:
        tracer = result["tracer"]
        print(f"layer shares of traced job time, workload {workload}:")
        for layer, share in tracer.layer_shares().items():
            print(f"  {layer:10s} {100 * share:6.2f}%")
        if tracer.absent:
            print(f"  absent seams: {', '.join(tracer.absent)}")


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    rows, merged, ok = {}, {"attempted": 0, "failed": 0, "metrics": {}}, True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        line = json.loads(lines[-1])
        rows[workload] = line["metrics"]
        ok = ok and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    names = list(next(iter(rows.values())))
    print(f"{'metric':36s}" + "".join(f"{w:>14s}" for w in rows) + "  unit")
    for name in names:
        print(f"{name:36s}" + "".join(f"{rows[w][name]['value']:14.6g}" for w in rows)
              + f"  {rows[next(iter(rows))][name]['unit']}")
    print(json.dumps({"correct": ok, **merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "trspace" / "__init__.py").is_file():
        print(f"error: no engine sources at {src}/trspace", file=sys.stderr)
        return 2
    if not REFS.is_dir():
        print(f"error: no reference answers at {REFS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    if args.trace:
        result = trace(args.workload, args.seed)
        OUT.mkdir(exist_ok=True)
        result["tracer"].dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        result = measure(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
