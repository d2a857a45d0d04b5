"""Benchmark: parallel campaign engine vs. the serial engine.

Measures wall-clock speedup of sharded multi-process fault injection on the
xgmac workload.  Run standalone for the full sweep::

    python benchmarks/bench_parallel.py --scale mini --jobs 1 2 4

or through pytest-benchmark with the rest of the suite (tiny scale, so CI
stays fast).  Results are bit-identical across ``jobs`` counts — the sweep
asserts it — so the speedups are free of any accuracy trade-off.  Every row reports effective campaign throughput as
lanes/sec (simulated lane-cycles per wall second).
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from typing import Dict, List

import pytest

from repro.campaigns import CampaignEngine
from repro.data import DATASET_PRESETS

from common import campaign_spec as _spec_for_scale
from common import result_counters as _result_key
from common import add_result_args, emit_result


def run_sweep(scale: str, jobs_list: List[int]) -> List[Dict]:
    """Time the campaign at each jobs count; verify bit-identical results."""
    spec = _spec_for_scale(scale)
    rows: List[Dict] = []
    reference = None
    serial_wall = None
    for jobs in jobs_list:
        engine = CampaignEngine(spec, jobs=jobs)  # no cache: measure raw engine
        start = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - start
        if reference is None:
            reference = _result_key(result)
        elif _result_key(result) != reference:
            raise AssertionError(f"jobs={jobs} result differs from serial")
        if serial_wall is None:
            serial_wall = wall
        rows.append(
            {
                "jobs": jobs,
                "wall_seconds": round(wall, 3),
                "speedup": round(serial_wall / wall, 2),
                "forward_runs": result.n_forward_runs,
                "lane_cycles_per_sec": round(result.total_lane_cycles / wall),
                "identical": True,
            }
        )
    return rows


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="mini", choices=sorted(DATASET_PRESETS))
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4])
    add_result_args(parser)
    args = parser.parse_args(argv)

    print(f"scale={args.scale} cpus={multiprocessing.cpu_count()}")
    rows = run_sweep(args.scale, args.jobs)
    print(f"{'jobs':>5} {'wall [s]':>10} {'speedup':>8} {'fwd runs':>9} {'Mlanes/s':>9}")
    for row in rows:
        print(
            f"{row['jobs']:>5} {row['wall_seconds']:>10.3f} "
            f"{row['speedup']:>7.2f}x {row['forward_runs']:>9} "
            f"{row['lane_cycles_per_sec'] / 1e6:>9.2f}"
        )
    emit_result(args, "parallel", {"scale": args.scale, "rows": rows})
    return 0


# ------------------------------------------------------------ pytest hooks


def test_bench_campaign_serial(benchmark):
    spec = _spec_for_scale("tiny")
    result = benchmark.pedantic(
        lambda: CampaignEngine(spec, jobs=1).run(), rounds=1, iterations=1
    )
    assert result.n_forward_runs > 0


def test_bench_campaign_parallel_speedup(benchmark):
    """jobs=4 must beat serial on the tiny campaign (skipped on small hosts)."""
    if multiprocessing.cpu_count() < 4:
        pytest.skip("needs >= 4 CPUs for a meaningful speedup measurement")
    rows = benchmark.pedantic(
        lambda: run_sweep("tiny", [1, 4]), rounds=1, iterations=1
    )
    speedup = rows[-1]["speedup"]
    print(f"jobs=4 speedup: {speedup}x")
    assert speedup > 1.0


if __name__ == "__main__":
    sys.exit(main())
