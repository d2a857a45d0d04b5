"""Shared circuit/workload setup and reporting helpers for the benchmarks.

``bench_parallel``, ``bench_substrate``, ``bench_scheduler`` and
``bench_verify`` used to each carry their own copy of the campaign-spec
construction, the xgmac workload recipe and the result-JSON plumbing; this
module is the single home for those pieces so the benchmarks stay focused on
what they measure.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaigns import CampaignSpec
from repro.circuits import build_xgmac_workload, get_circuit
from repro.data import DATASET_PRESETS
from repro.faultinjection import PacketInterfaceCriterion
from repro.netlist.core import Netlist
from repro.sim.testbench import GoldenTrace, Testbench


def campaign_spec(
    scale: str,
    n_injections: Optional[int] = None,
    schedule: str = "stream",
    policy: str = "flat",
    target_margin: Optional[float] = None,
) -> CampaignSpec:
    """Campaign spec mirroring a dataset preset (the benchmark workloads)."""
    kwargs = {} if target_margin is None else {"target_margin": target_margin}
    return CampaignSpec.from_dataset_spec(
        DATASET_PRESETS[scale],
        schedule=schedule,
        n_injections=n_injections,
        policy=policy,
        **kwargs,
    )


def result_counters(result) -> Dict[str, List[int]]:
    """Per-flip-flop counters — the cross-configuration identity check."""
    return {
        name: [r.n_injections, r.n_failures, r.latency_sum]
        for name, r in result.results.items()
    }


@dataclass
class WorkloadParts:
    """One fully prepared injection workload (netlist through criterion)."""

    netlist: Netlist
    testbench: Testbench
    golden: GoldenTrace
    criterion: PacketInterfaceCriterion
    active_window: tuple
    #: A representative early injection cycle for single-batch benchmarks.
    inject_cycle: int


def build_workload_parts(
    circuit: str = "xgmac",
    n_frames: int = 4,
    min_len: int = 2,
    max_len: int = 4,
    gap: int = 12,
    seed: int = 7,
) -> WorkloadParts:
    """Synthesize *circuit*, build its frame workload and record golden."""
    netlist = get_circuit(circuit)
    workload = build_xgmac_workload(
        netlist, n_frames=n_frames, min_len=min_len, max_len=max_len, gap=gap, seed=seed
    )
    golden = workload.testbench.run_golden()
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    first, _last = workload.active_window
    return WorkloadParts(
        netlist=netlist,
        testbench=workload.testbench,
        golden=golden,
        criterion=criterion,
        active_window=workload.active_window,
        inject_cycle=first + 4,
    )


def preset_workload_parts(scale: str) -> WorkloadParts:
    """Workload parts for a dataset preset (full-campaign benchmarks)."""
    spec = DATASET_PRESETS[scale]
    return build_workload_parts(
        circuit=spec.circuit,
        n_frames=spec.n_frames,
        min_len=spec.min_len,
        max_len=spec.max_len,
        gap=spec.gap,
        seed=spec.workload_seed,
    )


def write_json(path: Optional[str], payload: Dict) -> None:
    """Write *payload* as pretty JSON when a path was requested."""
    if path is None:
        return
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


# ---------------------------------------------------------------- trajectory

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_TRAJECTORY = RESULTS_DIR / "trajectory.json"


def git_commit() -> Optional[str]:
    """Short commit hash of the measured tree, if git is available."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=RESULTS_DIR.parent.parent,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.CalledProcessError):
        return None


def add_result_args(parser) -> None:
    """The uniform result-reporting flags every benchmark main exposes."""
    parser.add_argument("--out", default=None, help="write the full report as JSON")
    parser.add_argument(
        "--trajectory",
        nargs="?",
        const=str(DEFAULT_TRAJECTORY),
        default=None,
        help="append a uniform record to this trajectory file "
        f"(bare flag: {DEFAULT_TRAJECTORY.relative_to(RESULTS_DIR.parent.parent)})",
    )
    parser.add_argument(
        "--label", default=None, help="free-form label stored with the record"
    )


def load_trajectory(path: Path) -> Dict:
    """The trajectory document at *path* (a fresh one if absent/corrupt)."""
    doc = {"version": 1, "records": []}
    if Path(path).exists():
        try:
            loaded = json.loads(Path(path).read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("records"), list):
                doc = loaded
        except (OSError, ValueError):
            pass  # corrupt trajectory: start fresh rather than fail CI
    return doc


def append_trajectory(
    bench: str,
    summary: Dict,
    label: Optional[str] = None,
    path: Optional[Path] = None,
) -> Dict:
    """Append one uniform record to the shared perf-trajectory document.

    Every benchmark writes the same envelope — timestamp, commit, bench
    name, label, platform — with its measurements nested under ``summary``,
    so ``tools/bench_history.py --report-md`` can tabulate the whole history
    without per-benchmark cases.
    """
    path = Path(path) if path is not None else DEFAULT_TRAJECTORY
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": git_commit(),
        "bench": bench,
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "summary": summary,
    }
    doc = load_trajectory(path)
    doc["records"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return record


def emit_result(args, bench: str, payload: Dict, summary: Optional[Dict] = None) -> None:
    """The shared tail of every benchmark ``main``: ``--out`` JSON dump plus
    the optional ``--trajectory`` append (*summary* defaults to *payload*)."""
    write_json(args.out, payload)
    if args.trajectory is not None:
        append_trajectory(
            bench,
            summary if summary is not None else payload,
            label=args.label,
            path=Path(args.trajectory),
        )
        print(f"appended {bench} record to {args.trajectory}")
