"""The benchmark tracer's seams against the engine.

The tracer lists a seam it cannot find in `absent` and reads its
metrics as zero, so a refactor that moves or renames a traced function
would silently zero a per-layer metric. Installing the tracer on the
whole package must miss only `spaces.lx1`, which no space defines.

It runs in its own interpreter, because installing wraps the trspace
modules in place and the rest of the suite must see the originals.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

INSTALL = """
import importlib, json, pkgutil, sys
sys.path[:0] = [{bench!r}, {src!r}]
import trspace
# the package loads its layers on first use; the tracer wraps loaded ones only
for info in pkgutil.iter_modules(trspace.__path__):
    importlib.import_module("trspace." + info.name)
from tracer import Tracer
tracer = Tracer()
tracer.install()
absent = list(tracer.absent)
tracer.uninstall()
print(json.dumps(absent))
"""


def test_every_tracer_seam_is_found():
    code = INSTALL.format(bench=str(BENCH), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == ["spaces.lx1"]
