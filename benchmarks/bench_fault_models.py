"""Benchmarks: fault-model overhead on the injection engine.

The fault-model registry (``repro.faultinjection.faults``) must not tax the
paper's SEU hot path: the plain SEU keeps the pre-registry single-flip code
path, MBU clusters only add flips at activation, and the forcing models
(stuck-at, intermittent) pay a per-cycle re-force write — plus the loss of
convergence-based early retirement while their duty cycle is live.  This
benchmark quantifies all of that:

    python benchmarks/bench_fault_models.py --out fault_models.json

It measures full ``FaultInjector.run_batch`` sweeps (all flip-flops, one
injection cycle) on the tiny MAC workload for every registered FF-campaign
model and reports lane-cycles/second normalized to the SEU baseline.

Through pytest(-benchmark) the module keeps a small MBU sweep in CI so the
plan-compilation path stays on the perf radar.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.faultinjection import FaultInjector

from common import add_result_args, build_workload_parts, emit_result

#: Registry spec strings swept by the standalone benchmark; ``seu`` is the
#: baseline every other row is normalized against.
MODEL_SPECS = [
    "seu",
    "mbu:size=3,radius=1,seed=0",
    "stuck0",
    "intermittent:period=8,on=2,seed=0",
]


def measure_model_throughput(parts, model: str, repeats: int = 3) -> Dict:
    """Lane-cycles/second of full ``run_batch`` sweeps under *model*."""
    injector = FaultInjector(
        parts.netlist,
        parts.testbench,
        parts.golden,
        parts.criterion,
        fault_model=model,
    )
    lanes = list(range(injector.sim.n_flip_flops))
    warm = injector.run_batch(parts.inject_cycle, lanes)
    start = time.perf_counter()
    lane_cycles = 0
    failures = 0
    for _ in range(repeats):
        outcome = injector.run_batch(parts.inject_cycle, lanes)
        lane_cycles += outcome.cycles_simulated * outcome.n_lanes
        failures = len(outcome.failed_lanes())
    wall = time.perf_counter() - start
    return {
        "lane_cycles_per_sec": round(lane_cycles / wall),
        "cycles_simulated": warm.cycles_simulated,
        "n_failures": failures,
    }


def run_fault_model_sweep(circuit: str = "xgmac_tiny", repeats: int = 3) -> Dict:
    """Measure every model on *circuit*; JSON-ready report."""
    parts = build_workload_parts(
        circuit=circuit, n_frames=4, min_len=2, max_len=4, gap=12, seed=7
    )
    stats = parts.netlist.stats()
    report: Dict = {
        "circuit": circuit,
        "n_cells": stats.n_cells,
        "n_ffs": stats.n_sequential,
        "rows": [],
    }
    baseline: Optional[float] = None
    for model in MODEL_SPECS:
        row = measure_model_throughput(parts, model, repeats=repeats)
        row["model"] = model
        if model == "seu":
            baseline = row["lane_cycles_per_sec"]
        row["relative_to_seu"] = round(
            row["lane_cycles_per_sec"] / (baseline or row["lane_cycles_per_sec"]), 3
        )
        report["rows"].append(row)
    report["worst_relative_to_seu"] = min(
        row["relative_to_seu"] for row in report["rows"]
    )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-fault-model run_batch throughput sweep."
    )
    parser.add_argument("--circuit", default="xgmac_tiny")
    parser.add_argument("--repeats", type=int, default=3)
    add_result_args(parser)
    args = parser.parse_args(argv)

    report = run_fault_model_sweep(args.circuit, repeats=args.repeats)
    print(
        f"circuit={report['circuit']} cells={report['n_cells']} ffs={report['n_ffs']}"
    )
    print(f"{'model':>32} {'Mlc/s':>8} {'vs seu':>7} {'cycles':>7}")
    for row in report["rows"]:
        print(
            f"{row['model']:>32} "
            f"{row['lane_cycles_per_sec'] / 1e6:>8.2f} "
            f"{row['relative_to_seu']:>6.2f}x {row['cycles_simulated']:>7}"
        )
    emit_result(args, "fault_models", report)
    return 0


# ------------------------------------------------------------ pytest hooks


def test_bench_mbu_batch(benchmark, bench_mac):
    """MBU plan compilation + multi-flip batch on the tiny MAC."""
    from repro.faultinjection import PacketInterfaceCriterion

    netlist, workload = bench_mac
    golden = workload.testbench.run_golden()
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    injector = FaultInjector(
        netlist,
        workload.testbench,
        golden,
        criterion,
        fault_model="mbu:size=3,radius=1,seed=0",
    )
    first, _last = workload.active_window
    lanes = list(range(min(64, injector.sim.n_flip_flops)))
    outcome = benchmark(lambda: injector.run_batch(first + 4, lanes))
    assert outcome.n_lanes == len(lanes)


def test_bench_stuck_at_batch(benchmark, bench_mac):
    """Per-cycle re-force path (no early retirement) on the tiny MAC."""
    from repro.faultinjection import PacketInterfaceCriterion

    netlist, workload = bench_mac
    golden = workload.testbench.run_golden()
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model="stuck0"
    )
    first, _last = workload.active_window
    lanes = list(range(min(64, injector.sim.n_flip_flops)))
    outcome = benchmark(lambda: injector.run_batch(first + 4, lanes))
    assert outcome.n_lanes == len(lanes)


if __name__ == "__main__":
    sys.exit(main())
