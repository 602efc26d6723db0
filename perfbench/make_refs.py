"""Write the reference answers the benchmark checks jobs against.

    python3 perfbench/make_refs.py

Runs one round of every workload for the default and the held-out seed
and stores each job's answer projection in refs/seed-<n>.json, split
into the jobs that do not depend on the seed ("fixed", used for every
seed) and those that do ("seeded"). A job whose independent check fails
stops the script: a wrong answer never becomes a reference.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HELD_OUT_SEED, REFS, ROOT, WORKLOADS, normalize, run_job, setup


def answers(seed: int) -> dict:
    out = {"fixed": {}, "seeded": {}}
    for workload in WORKLOADS:
        jobs, _, _ = setup(workload, seed, refs={}, repeats=1)
        for job in jobs:
            result, error, _ = run_job(job)
            error = error or job.check(result)
            if error:
                raise SystemExit(f"{workload}: {error}")
            out["seeded" if job.seeded else "fixed"][job.id] = normalize(job.answer(result))
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    REFS.mkdir(exist_ok=True)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        path = REFS / f"seed-{seed}.json"
        path.write_text(json.dumps({"seed": seed, **answers(seed)}, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
