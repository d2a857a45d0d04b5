"""End-to-end benchmark of the FDR estimation flow, one workload per run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload xgmac_table1 --seed 3 --seconds 10 --trace 0

A run repeats whole passes of the workload (see ``flows.py``) while the next
pass is projected to end within ``--seconds``; it always runs at least one.
End-to-end metrics are medians over the passes.  ``--trace 1`` instead runs
one untraced and one traced pass and reports the per-layer numbers of the
traced one, plus ``obs.trace_overhead`` (traced wall over untraced wall).
Every pass is checked against the outputs recorded in ``expected.json``; a
pass that fails a check, or raises, counts as failed.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans of the traced pass, the per-pass figures and the run's environment
(commit, machine, nproc, thread pins) are written to
``.e2ebench/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
    "injections": "count",
    "margin_max": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("utilization", "occupancy", "overhead")):
        return "ratio"
    return "count"


def environment(flows) -> dict:
    """What the figures depend on besides the code: machine and settings.

    The commit is read from git when the checkout is a repository; the
    digest of the program's sources identifies the code either way.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "nproc": flows.n_workers(),
        "threads": {var: os.environ.get(var) for var in flows.THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import flows  # pins BLAS threads before numpy loads

    workload = flows.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(flows.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    expected = flows.load_expected()
    flows.OUT_DIR.mkdir(exist_ok=True)

    passes, failures = [], []

    def attempt(traced: bool):
        """One checked pass; returns it, or None when it raised or failed."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=flows.OUT_DIR))
        try:
            passed = flows.run_pass(workload, args.seed, cache_dir, traced=traced)
        except Exception:
            failures.append(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems = flows.check_pass(workload, args.seed, passed, expected)
        failures.extend(problems)
        passes.append(passed)
        print(
            f"pass {len(passes)}{' (traced)' if traced else ''}: "
            f"wall {passed.wall_s:.3f}s setup {passed.setup_s:.3f}s "
            f"campaign {passed.campaign_s:.3f}s injections {passed.injections} "
            f"margin_max {passed.margin_max:.4f}"
            + (f" r2 {passed.r2}" if passed.r2 else "")
            + (f" FAILED: {problems}" if problems else ""),
            flush=True,
        )
        return None if problems else passed

    outcomes = []
    metrics = {}
    if args.trace:
        outcomes = [attempt(traced=False), attempt(traced=True)]
        plain, traced = passes[0] if passes else None, passes[-1] if passes else None
        if traced is not None and traced.recorder is not None:
            metrics = flows.layer_metrics(traced)
            if plain is not None and plain.recorder is None:
                metrics["obs.trace_overhead"] = traced.wall_s / plain.wall_s
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            outcomes.append(attempt(traced=False))
            now = time.perf_counter()
            if now - start + (now - before) > args.seconds:
                break
        if passes:
            for name in ("wall_s", "setup_s", "campaign_s", "margin_max"):
                metrics[name] = statistics.median(getattr(p, name) for p in passes)
            metrics["injections"] = statistics.median_low(p.injections for p in passes)
            metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
    n_failed = sum(outcome is None for outcome in outcomes)

    env = environment(flows)
    trace_file = flows.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "input_set": flows.input_set(args.seed),
                "environment": env,
                "passes": [
                    {
                        "wall_s": p.wall_s,
                        "setup_s": p.setup_s,
                        "campaign_s": p.campaign_s,
                        "injections": p.injections,
                        "margin_max": p.margin_max,
                        "digest": p.digest,
                        "r2": p.r2,
                        "policy": p.policy_meta,
                        "registry": p.registry.snapshot().to_payload(),
                        "spans": p.recorder.spans if p.recorder else None,
                    }
                    for p in passes
                ],
                "failures": failures,
                "metrics": metrics,
            },
            indent=1,
        )
    )
    flows.stop_resource_tracker()
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": n_failed == 0,
                "attempted": len(outcomes),
                "failed": n_failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
