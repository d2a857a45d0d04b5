"""Smoke test of the benchmark at tiny sizes (about half a minute).

Runs ``run.py`` on ``xgmac_tiny`` and ``mesh_tiny``, untraced and traced, and
checks that every metric ``BENCHMARK.json`` names is printed with its unit and
that every pass passed its output check (which, on traced passes, includes the
layer-sum check).  Then runs ``run.py`` in a directory holding only
``BENCHMARK.json`` and this directory, where it must fail without printing a
result.  From the repository root::

    python3 e2ebench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("xgmac_tiny", "mesh_tiny"):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: output check failed\n{proc.stderr}")
            printed = result["metrics"]
            for metric in declared:
                got = printed.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or wrong unit: {got}")
            extra = set(printed) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"{label}: {len(printed)} metrics, correct={result['correct']}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), "xgmac_tiny", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without the program's sources must fail silently")
        print(f"without sources: exit {proc.returncode}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
