"""Benchmark: flat protocol vs. sequential Wilson early stopping.

The acceptance benchmark of the adaptive-sampling work: one full flat
campaign (the paper's fixed per-flip-flop budget) and one sequential
campaign asked to meet the flat run's *realized* worst-case Wilson margin,
both from a cold cache.  The figure of merit is the injection count at
equal statistical quality::

    python benchmarks/bench_policy.py --scale full --injections 170 \
        --trajectory

With ``--min-savings`` the benchmark turns into a tolerance-gated
acceptance check (non-zero exit on failure) — CI runs a seeded mini-scale
variant on every push.  See docs/campaigns.md ("Adaptive sampling") for
the protocol and docs/performance.md for recorded numbers.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaigns import CampaignEngine
from repro.campaigns.policy import interval_margin

from common import add_result_args, campaign_spec, emit_result


def _margins(result) -> List[float]:
    return [
        interval_margin(r.n_injections, r.n_failures)
        for r in result.results.values()
    ]


def run_flat_row(scale: str, n_injections: int, jobs: int) -> Dict:
    """Time one cold flat campaign; report its realized Wilson margins."""
    spec = campaign_spec(scale, n_injections)
    with tempfile.TemporaryDirectory() as cache:
        engine = CampaignEngine(spec, jobs=jobs, cache_dir=Path(cache))
        start = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - start
    margins = _margins(result)
    return {
        "policy": "flat",
        "circuit": result.circuit,
        "wall_seconds": round(wall, 3),
        "injections": sum(r.n_injections for r in result.results.values()),
        "realized_margin_max": max(margins),
        "realized_margin_mean": sum(margins) / len(margins),
    }


def run_sequential_row(
    scale: str, n_injections: int, target_margin: float, jobs: int
) -> Dict:
    """Time one cold sequential campaign at *target_margin*."""
    spec = campaign_spec(
        scale, n_injections, policy="sequential", target_margin=target_margin
    )
    with tempfile.TemporaryDirectory() as cache:
        engine = CampaignEngine(spec, jobs=jobs, cache_dir=Path(cache))
        start = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - start
    meta = engine.last_policy_meta
    return {
        "policy": "sequential",
        "target_margin": target_margin,
        "wall_seconds": round(wall, 3),
        "rounds": meta["rounds"],
        "injections": meta["total_injections"],
        "realized_margin_max": meta["realized_margin_max"],
        "realized_margin_mean": meta["realized_margin_mean"],
    }


def run_comparison(
    scale: str,
    n_injections: int,
    target_margin: Optional[float] = None,
    jobs: int = 1,
) -> Dict:
    """Flat vs. sequential at the flat protocol's realized margin.

    With no explicit ``target_margin`` the sequential run is asked to match
    the flat run's worst flip-flop — the weakest guarantee the fixed budget
    actually delivered — so the injection ratio is an equal-quality figure.
    """
    flat = run_flat_row(scale, n_injections, jobs)
    if target_margin is None:
        target_margin = flat["realized_margin_max"]
    sequential = run_sequential_row(scale, n_injections, target_margin, jobs)
    savings = flat["injections"] / max(1, sequential["injections"])
    return {
        "scale": scale,
        "circuit": flat.pop("circuit"),
        "n_injections_per_ff": n_injections,
        "jobs": jobs,
        "target_margin": target_margin,
        "rows": [flat, sequential],
        "injections_savings": round(savings, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full", choices=["tiny", "mini", "full"])
    parser.add_argument(
        "--injections", type=int, default=170, help="flat injections per flip-flop"
    )
    parser.add_argument(
        "--target-margin",
        type=float,
        default=None,
        help="sequential stopping margin (default: the flat run's realized max)",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--min-savings",
        type=float,
        default=None,
        help="acceptance gate: fail unless flat/sequential injections >= this",
    )
    parser.add_argument(
        "--margin-tolerance",
        type=float,
        default=0.02,
        help="acceptance gate: allowed relative excess of the sequential "
        "realized margin over the target (budget-capped flip-flops)",
    )
    add_result_args(parser)
    args = parser.parse_args(argv)

    report = run_comparison(
        args.scale,
        args.injections,
        target_margin=args.target_margin,
        jobs=args.jobs,
    )
    print(
        f"circuit={report['circuit']} injections/ff={args.injections} "
        f"target_margin={report['target_margin']:.4f}"
    )
    print(f"{'policy':>10} {'wall [s]':>9} {'injections':>11} {'margin max':>11} {'margin mean':>12}")
    for row in report["rows"]:
        print(
            f"{row['policy']:>10} {row['wall_seconds']:>9.2f} {row['injections']:>11} "
            f"{row['realized_margin_max']:>11.4f} {row['realized_margin_mean']:>12.4f}"
        )
    print(f"savings: {report['injections_savings']:.2f}x fewer injections at equal margin")

    summary = {
        "scale": report["scale"],
        "circuit": report["circuit"],
        "n_injections_per_ff": args.injections,
        "target_margin": report["target_margin"],
        "flat_injections": report["rows"][0]["injections"],
        "sequential_injections": report["rows"][1]["injections"],
        "sequential_rounds": report["rows"][1]["rounds"],
        "injections_savings": report["injections_savings"],
        "flat_realized_margin_max": report["rows"][0]["realized_margin_max"],
        "sequential_realized_margin_max": report["rows"][1]["realized_margin_max"],
    }
    emit_result(args, "policy", report, summary=summary)

    if args.min_savings is not None:
        margin_cap = report["target_margin"] * (1.0 + args.margin_tolerance)
        realized = report["rows"][1]["realized_margin_max"]
        if realized > margin_cap:
            print(
                f"FAIL: sequential realized margin {realized:.4f} exceeds "
                f"{margin_cap:.4f} (target {report['target_margin']:.4f} "
                f"+ {args.margin_tolerance:.0%})"
            )
            return 1
        if report["injections_savings"] < args.min_savings:
            print(
                f"FAIL: savings {report['injections_savings']:.2f}x below the "
                f"{args.min_savings:.2f}x acceptance bar"
            )
            return 1
        print(
            f"OK: margin {realized:.4f} <= {margin_cap:.4f}, "
            f"savings {report['injections_savings']:.2f}x >= {args.min_savings:.2f}x"
        )
    return 0


# ------------------------------------------------------------ pytest hooks


def test_bench_policy_smoke(benchmark):
    """Tiny-scale comparison: sequential meets the margin with fewer draws."""
    report = benchmark.pedantic(
        lambda: run_comparison("tiny", 40, target_margin=0.15), rounds=1, iterations=1
    )
    flat, sequential = report["rows"]
    assert sequential["injections"] < flat["injections"]
    assert report["injections_savings"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
