"""Benchmark: adaptive injection scheduler lane width.

One full flat campaign on the synthesized xgmac MAC (every flip-flop,
paper-style injection draws) per pass-width configuration of the adaptive
scheduler (mixed-cycle lane refill, compaction, wide passes).  Run
standalone::

    python benchmarks/bench_scheduler.py --scale full --injections 170 \
        --out scheduler.json

Per-flip-flop counters are asserted identical across every row — lane width
is pure scheduling.  ``benchmarks/results/scheduler.json`` is the historical
record of the retired batch/fused comparison; through pytest the module
keeps a tiny-scale smoke row so CI stays fast.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.faultinjection import StatisticalFaultCampaign
from repro.faultinjection.scheduler import AUTO_MAX_LANES

from common import add_result_args, emit_result, preset_workload_parts, result_counters

#: Pass widths measured by default; the first (the scheduler's own default)
#: is the baseline every row is normalized against.
DEFAULT_LANES = (AUTO_MAX_LANES, 1024, 256)


def run_campaign_row(
    parts, n_injections: int, max_lanes: Optional[int] = None, seed: int = 0
) -> Dict:
    """Time one full flat campaign; return the JSON-ready row."""
    campaign = StatisticalFaultCampaign(
        parts.netlist,
        parts.testbench,
        parts.criterion,
        active_window=parts.active_window,
        golden=parts.golden,
        scheduler_lanes=max_lanes,
    )
    start = time.perf_counter()
    result = campaign.run(n_injections=n_injections, seed=seed)
    wall = time.perf_counter() - start
    total = sum(r.n_injections for r in result.results.values())
    return {
        "max_lanes": max_lanes or AUTO_MAX_LANES,
        "wall_seconds": round(wall, 3),
        "injections": total,
        "injections_per_sec": round(total / wall),
        "forward_runs": result.n_forward_runs,
        "lane_cycles": result.total_lane_cycles,
        "counters": result_counters(result),
    }


def run_sweep(
    scale: str, n_injections: int, lanes=DEFAULT_LANES, seed: int = 0
) -> Dict:
    """Measure every pass width; assert bit-identical per-ff counters."""
    parts = preset_workload_parts(scale)
    stats = parts.netlist.stats()
    report: Dict = {
        "scale": scale,
        "circuit": parts.netlist.name,
        "n_cells": stats.n_cells,
        "n_ffs": stats.n_sequential,
        "n_injections_per_ff": n_injections,
        "rows": [],
    }
    reference = baseline_ips = None
    for max_lanes in lanes:
        row = run_campaign_row(parts, n_injections, max_lanes, seed)
        counters = row.pop("counters")
        if reference is None:
            reference, baseline_ips = counters, row["injections_per_sec"]
        elif counters != reference:
            raise AssertionError(
                f"max_lanes={max_lanes} per-ff counters differ from max_lanes={lanes[0]}"
            )
        row["identical"] = True
        row["speedup_vs_baseline"] = round(row["injections_per_sec"] / baseline_ips, 2)
        report["rows"].append(row)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full", choices=["tiny", "mini", "full"])
    parser.add_argument(
        "--injections", type=int, default=170, help="injections per flip-flop"
    )
    parser.add_argument("--seed", type=int, default=0)
    add_result_args(parser)
    args = parser.parse_args(argv)

    report = run_sweep(args.scale, args.injections, seed=args.seed)
    print(
        f"circuit={report['circuit']} cells={report['n_cells']} "
        f"ffs={report['n_ffs']} injections/ff={report['n_injections_per_ff']}"
    )
    print(f"{'lanes':>6} {'wall [s]':>9} {'inj/s':>8} {'fwd':>6} {'vs base':>8}")
    for row in report["rows"]:
        print(
            f"{row['max_lanes']:>6} {row['wall_seconds']:>9.2f} "
            f"{row['injections_per_sec']:>8} {row['forward_runs']:>6} "
            f"{row['speedup_vs_baseline']:>7.2f}x"
        )
    emit_result(args, "scheduler", report)
    return 0


# ------------------------------------------------------------ pytest hooks


def test_bench_scheduler_smoke(benchmark):
    """Tiny-scale sweep: every pass width agrees bit-for-bit."""
    report = benchmark.pedantic(
        lambda: run_sweep("tiny", 6), rounds=1, iterations=1
    )
    assert all(row["identical"] for row in report["rows"])


if __name__ == "__main__":
    sys.exit(main())
