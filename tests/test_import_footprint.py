"""The runtime needs numpy only: scipy and networkx stay off the import path.

scipy is the test suite's reference for the normal quantile and networkx
backs the reference feature engine (``engine="networkx"``); together they
cost about 90 MB and a second per process.  This guard runs the default
flow in a fresh interpreter and checks that neither library was loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys, tempfile
from pathlib import Path

import repro
import repro.campaigns
import repro.features.extractor
import repro.experiments.table1
from repro.data import get_dataset
from repro.experiments.table1 import run_table1

with tempfile.TemporaryDirectory() as cache:
    dataset = get_dataset("tiny", cache_dir=Path(cache))
run_table1(dataset, seed=0)
print(json.dumps({
    "engine": dataset.meta["features_engine"],
    "rows": dataset.n_samples,
    "loaded": sorted(m for m in ("scipy", "networkx") if m in sys.modules),
}))
"""


def test_default_flow_loads_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["engine"] == "vectorized"
    assert report["rows"] > 0
    assert report["loaded"] == []
