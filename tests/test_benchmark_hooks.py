"""The end-to-end benchmark's hooks into the program still resolve.

``e2ebench/tracing.py`` patches a fixed list of entry points (by
``getattr``/``setattr``) during a traced pass, and ``e2ebench/flows.py``
imports a few names directly.  A change that deletes or renames one of them
breaks the benchmark long after the unit tests passed; this guard imports
both modules and enters ``instrument`` in a fresh interpreter (importing
``flows`` pins the BLAS thread pools and edits ``sys.path``), reading
``e2ebench/`` only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import flows
import tracing

recorder = tracing.SpanRecorder()
with tracing.instrument(recorder):
    pass
print("ok")
"""


def test_benchmark_patch_targets_and_imports_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "e2ebench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
