"""Record the outputs every benchmark pass is checked against.

For each workload and each of the ``flows.INPUT_SETS`` input sets, runs the
flow once and stores its per-flip-flop counter digest, its injection count
and, for Table I workloads, the k-NN and SVR R² in ``expected.json``.  Run it
from the repository root after a deliberate change to the program's outputs::

    python3 e2ebench/record.py                      # every workload
    python3 e2ebench/record.py --workloads mesh_tiny xgmac_tiny

Entries of workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import flows  # noqa: E402  (pins BLAS threads before numpy loads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(flows.WORKLOADS))
    args = parser.parse_args(argv)
    expected = flows.load_expected() if flows.EXPECTED_FILE.exists() else {}
    flows.OUT_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        # Set-up timing is irrelevant here; features only matter for Table I.
        workload = replace(
            flows.WORKLOADS[name], setup_reps=1, features=flows.WORKLOADS[name].table1
        )
        entries = {}
        for index in range(flows.INPUT_SETS):
            cache_dir = Path(tempfile.mkdtemp(prefix="record-", dir=flows.OUT_DIR))
            try:
                passed = flows.run_pass(workload, index, cache_dir)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            entry = {"digest": passed.digest, "injections": passed.injections}
            if passed.r2:
                entry["r2"] = passed.r2
            entries[str(index)] = entry
            print(f"{name} input set {index}: {entry}", flush=True)
        expected[name] = entries
        flows.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
