"""The runtime needs numpy only: scipy and networkx stay off the import path.

scipy is the test suite's reference for the normal quantile and networkx
backs the reference feature quantities (``CircuitGraph(netlist).stats()``);
together they cost about 90 MB and a second per process.  This guard runs
the default flow and the extended-features experiment in a fresh interpreter
and checks that neither library was loaded.

The same interpreter runs a two-worker campaign: the warm cache keeps its
golden traces as plain lists, so no campaign loads
``multiprocessing.shared_memory`` or starts the resource-tracker process.
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
from multiprocessing import resource_tracker
from repro.campaigns import CampaignEngine, CampaignSpec
from repro.data import get_dataset
from repro.experiments.extended_features import run_extended_features
from repro.experiments.table1 import run_table1

with tempfile.TemporaryDirectory() as cache:
    dataset = get_dataset("tiny", cache_dir=Path(cache))
run_table1(dataset, seed=0)
run_extended_features(dataset, cv_folds=3, seed=0)
spec = CampaignSpec(
    circuit="xgmac_tiny", n_frames=4, min_len=2, max_len=3, gap=12,
    workload_seed=7, n_injections=8, seed=5, schedule="stream",
)
campaign = CampaignEngine(spec, jobs=2).run()
print(json.dumps({
    "rows": dataset.n_samples,
    "loaded": sorted(m for m in ("scipy", "networkx") if m in sys.modules),
    "campaign_ffs": len(campaign.results),
    "shared_memory": "multiprocessing.shared_memory" in sys.modules,
    "tracker_pid": resource_tracker._resource_tracker._pid,
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
    assert report["rows"] > 0
    assert report["loaded"] == []
    assert report["campaign_ffs"] > 0
    assert report["shared_memory"] is False
    assert report["tracker_pid"] is None
