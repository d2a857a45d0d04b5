"""Command-line experiment runner.

Usage::

    python -m repro.experiments table1 --scale mini
    python -m repro.experiments fig2 fig3 fig4 --scale full --out results/
    python -m repro.experiments all --scale tiny --jobs 4
    python -m repro.experiments transfer --preset tiny
    python -m repro.experiments transfer --preset tiny --circuits counter16 fifo4x4 crc32 lfsr16
    python -m repro.experiments campaign --scale mini --jobs 4 --injections 170
    python -m repro.experiments campaign --scale tiny --fault-model mbu:size=3
    python -m repro.experiments seu-mbu --scale mini
    python -m repro.experiments verify --seeds 50 --scale mini

Scales map to the dataset presets of :mod:`repro.data`: ``tiny`` (seconds),
``mini`` (default, < 1 min), ``full`` (the paper-scale configuration —
1012 flip-flops × 170 injections; several minutes on first run, cached
afterwards).

Every experiment resolves through the unified
:class:`~repro.experiments.spec.ExperimentRunner`: the CLI builds one
:class:`~repro.experiments.spec.ExperimentSpec` per requested experiment
and one shared :class:`~repro.experiments.spec.ExperimentContext`, so a
batch of experiments on one scale loads its labelled dataset exactly once.

The ``transfer`` experiment runs the cross-circuit matrix (train on
circuit A, test on circuit B, over the whole circuit library by default);
``--preset`` picks the per-circuit dataset scale and ``--circuits``
restricts the sweep.  ``--jobs N`` shards the fault-injection campaigns
across N worker processes (results are bit-identical to a serial run);
``--cache-dir`` relocates the dataset cache and the campaign result store.
The ``seu-mbu`` experiment trains the paper models on the scale's SEU
dataset and scores them on a fault-model-transfer target dataset of the
same circuit (``--fault-model`` picks the target label family; default
``mbu:size=3,radius=1,seed=0`` — see ``docs/fault_models.md``).
The ``campaign`` command runs the parallel campaign engine directly
(``stream`` schedule, so repeated runs with growing ``--injections`` only
simulate the delta) and prints its economics; ``--fault-model`` swaps the
injected fault family (cache identities stay separate per model).

The ``verify`` command fuzzes ``--seeds`` random circuits and cross-checks
the compiled simulator, the event-driven simulator, the reference oracle and
the fault injector on each (see :mod:`repro.verify`); any divergence makes
the command exit non-zero and prints the reproducing seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..campaigns import (
    DEFAULT_TARGET_MARGIN,
    SAMPLING_POLICIES,
    CampaignEngine,
    CampaignSpec,
)
from ..data import DATASET_PRESETS, default_cache_dir
from ..obs import JsonlSink, LiveProgressSink, Telemetry, get_telemetry, use_telemetry
from ..verify import verify_seeds
from .spec import ExperimentContext, ExperimentRunner, ExperimentSpec

#: Event subset written by ``--metrics-out`` (and the default telemetry
#: file under ``--out``): the run's identity, its phase spans and the final
#: metrics rollup — no per-shard progress chatter.
METRICS_EVENTS = ("provenance", "span_begin", "span_end", "metrics")

EXPERIMENTS = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "future-work",
    "ablation",
    "tuning",
    "importance",
    "extended-features",
    "transfer",
    "seu-mbu",
]

#: ``all`` expands to the single-dataset experiments; the transfer matrix
#: and the SEU→MBU fault-model transfer sweep their own extra datasets and
#: are requested explicitly.
ALL_EXPERIMENTS = [e for e in EXPERIMENTS if e not in ("transfer", "seu-mbu")]


def run_campaign_command(args, cache_dir: Path, out_dir: Optional[Path]) -> None:
    """Drive the parallel campaign engine directly and print its economics."""
    dataset_spec = DATASET_PRESETS[args.scale]
    spec = CampaignSpec.from_dataset_spec(
        dataset_spec,
        schedule="stream",
        n_injections=args.injections,
        policy=args.policy,
        target_margin=args.target_margin,
        fault_model=args.fault_model,
    )
    if args.circuit is not None:
        from dataclasses import replace as dc_replace

        from ..circuits.workloads import default_criterion

        spec = dc_replace(
            spec, circuit=args.circuit, criterion=default_criterion(args.circuit)
        )
    policy_label = (
        f"{spec.policy}(margin={spec.target_margin})"
        if spec.policy == "sequential"
        else spec.policy
    )
    print(
        f"=== campaign === circuit={spec.circuit} injections={spec.n_injections} "
        f"fault_model={spec.fault_model} "
        f"policy={policy_label} jobs={args.jobs} "
        f"cache={cache_dir}",
        flush=True,
    )
    retry = None
    if args.shard_timeout is not None or args.shard_retries is not None:
        from ..campaigns.supervisor import RetryPolicy

        retry_kwargs = {}
        if args.shard_timeout is not None:
            retry_kwargs["shard_timeout"] = args.shard_timeout
        if args.shard_retries is not None:
            retry_kwargs["max_attempts"] = args.shard_retries
        retry = RetryPolicy(**retry_kwargs)
    engine = CampaignEngine(
        spec,
        jobs=args.jobs,
        cache_dir=cache_dir,
        retry=retry,
        # --live renders progress through the telemetry sink instead of
        # printed shard lines (both would fight over the terminal).
        progress=(
            None
            if args.live
            else lambda done, total: print(f"  shard {done}/{total}", flush=True)
        ),
    )
    # Record the golden trace in the parent before any workers fork: a
    # broken workload fails here with one clean traceback instead of in N
    # pool workers, and the telemetry stream carries the full
    # synthesize -> golden_trace -> campaign phase sequence (workers
    # re-derive their own golden but attach no sinks).
    engine.context.ensure_golden()
    result = engine.run()
    report = engine.last_report
    n_ffs = len(result.results)
    total_injections = sum(r.n_injections for r in result.results.values())
    print(f"flip-flops: {n_ffs}, injections: {total_injections}")
    print(
        f"forward runs: {result.n_forward_runs} "
        f"(lane amortization {total_injections / max(1, result.n_forward_runs):.1f}x)"
    )
    if report.cache_hit:
        print("result store: exact snapshot hit, zero forward simulations")
    else:
        print(
            f"result store: reused {report.base_injections} injections/ff, "
            f"resumed {report.resumed_buckets} buckets, "
            f"executed {report.executed_forward_runs} forward runs "
            f"across {report.n_shards} shards"
        )
    if spec.policy == "sequential" and engine.last_policy_meta:
        meta = engine.last_policy_meta
        print(
            f"policy: {meta['rounds']} rounds, "
            f"{meta['total_injections']}/{meta['flat_injections']} injections "
            f"({meta['injections_saved']} saved), realized margin "
            f"max {meta['realized_margin_max']:.4f} / "
            f"mean {meta['realized_margin_mean']:.4f}"
        )
    if report.retries or report.pool_rebuilds or report.quarantined_shards:
        print(
            f"robustness: {report.retries} shard retries, "
            f"{report.pool_rebuilds} pool rebuilds, "
            f"{len(report.quarantined_shards)} quarantined shards"
            + (" (degraded to serial)" if report.degraded_serial else "")
        )
        for entry in report.quarantined_shards:
            print(f"  quarantined shard {entry['shard']}: {entry['reason']}")
    print(f"mean FDR: {result.mean_fdr():.4f}, wall: {report.wall_seconds:.2f}s")
    if out_dir is not None:
        (out_dir / "campaign.json").write_text(result.to_json())


def run_verify_command(args, out_dir: Optional[Path]) -> int:
    """Sweep fuzz seeds through the differential harness; 0 = all agree."""
    print(
        f"=== verify === seeds={args.seeds} (base {args.seed}) scale={args.scale}",
        flush=True,
    )

    def progress(done: int, total: int, report) -> None:
        status = "ok" if report.ok else "DIVERGED"
        print(
            f"  seed {report.seed}: {report.n_cells} cells, {report.n_ffs} FFs, "
            f"{report.comparisons} comparisons, "
            f"{report.injections_checked} injections — {status}",
            flush=True,
        )

    summary = verify_seeds(
        args.seeds, scale=args.scale, seed_base=args.seed, progress=progress
    )
    print(
        f"checked {summary.n_seeds} circuits: {summary.n_comparisons} engine-vs-oracle "
        f"comparisons, {summary.n_injections_checked} injector replays "
        f"({summary.n_merged} scheduled requests rode a merged lane, over both "
        f"scheduler runs; {summary.n_nonrelevant} struck a non-relevant "
        f"flip-flop) "
        f"in {summary.wall_seconds:.2f}s "
        f"({summary.comparisons_per_second():,.0f} comparisons/s)"
    )

    def write_summary(n_generated_checked: int, n_hold_run_checked: int) -> None:
        if out_dir is None:
            return
        payload = {
            "n_seeds": summary.n_seeds,
            "n_comparisons": summary.n_comparisons,
            "n_injections_checked": summary.n_injections_checked,
            "n_generated_checked": n_generated_checked,
            "n_hold_run_checked": n_hold_run_checked,
            "n_merged": summary.n_merged,
            "n_nonrelevant": summary.n_nonrelevant,
            "wall_seconds": summary.wall_seconds,
            "failing_seeds": [r.seed for r in summary.failing],
        }
        (out_dir / "verify.json").write_text(json.dumps(payload, indent=2))

    if not summary.ok:
        write_summary(0, 0)
        for report in summary.failing:
            for divergence in report.divergences:
                print(f"  seed {report.seed}: {divergence}")
        print(
            "DIVERGENCE — reproduce with "
            f"`python -m repro.experiments verify --seeds 1 "
            f"--seed {summary.failing[0].seed} --scale {args.scale}`"
        )
        return 1
    print("all engines agree with the oracle")

    from ..verify.diff import HOLD_RUN_WORKLOADS, run_generated_check, run_hold_run_check

    print("=== generated === circuit=mesh_tiny", flush=True)
    gen_start = time.perf_counter()
    gen_divergences, gen_checked = run_generated_check(
        circuit="mesh_tiny", seed=args.seed
    )
    if gen_divergences:
        write_summary(gen_checked, 0)
        for divergence in gen_divergences:
            print(f"  mesh_tiny: {divergence}")
        print("GENERATED DIVERGENCE — injector disagrees on generated circuit")
        return 1
    print(
        f"  mesh_tiny: {gen_checked} injector+scheduler replays agree "
        f"in {time.perf_counter() - gen_start:.2f}s"
    )

    print(f"=== hold runs === circuits={','.join(HOLD_RUN_WORKLOADS)}", flush=True)
    hold_checked = 0
    for circuit in HOLD_RUN_WORKLOADS:
        hold_start = time.perf_counter()
        hold_divergences, checked = run_hold_run_check(circuit)
        hold_checked += checked
        if hold_divergences:
            write_summary(gen_checked, hold_checked)
            for divergence in hold_divergences:
                print(f"  {circuit}: {divergence}")
            print("HOLD-RUN DIVERGENCE — a parked injection disagrees with its naive batch")
            return 1
        print(
            f"  {circuit}: {checked} hold-run replays agree "
            f"in {time.perf_counter() - hold_start:.2f}s"
        )
    write_summary(gen_checked, hold_checked)

    if args.chaos_trials > 0:
        from ..verify.chaos import ChaosTrialError, run_chaos_trials

        print(
            f"=== chaos === trials={args.chaos_trials} (base {args.seed}) "
            f"jobs={max(2, args.jobs)}",
            flush=True,
        )
        try:
            reports = run_chaos_trials(
                args.chaos_trials,
                jobs=max(2, args.jobs),
                seed_base=args.seed,
            )
        except ChaosTrialError as exc:
            print(f"CHAOS DIVERGENCE — {exc}")
            return 1
        for report in reports:
            faults = ", ".join(
                f"{kind}={count}" for kind, count in report.faults.items() if count
            )
            print(
                f"  trial {report.trial} ({report.flavor}): recovered "
                f"bit-identically in {report.wall_seconds:.2f}s — "
                f"{report.retries} retries, {report.pool_rebuilds} rebuilds, "
                f"{report.corrupt_files} quarantined files"
                + (f" [{faults}]" if faults else "")
            )
        if out_dir is not None:
            payload = [
                {
                    "trial": r.trial,
                    "flavor": r.flavor,
                    "seed": r.seed,
                    "matched": r.matched,
                    "retries": r.retries,
                    "pool_rebuilds": r.pool_rebuilds,
                    "quarantined": r.quarantined,
                    "corrupt_files": r.corrupt_files,
                    "faults": r.faults,
                    "wall_seconds": r.wall_seconds,
                }
                for r in reports
            ]
            (out_dir / "chaos.json").write_text(json.dumps(payload, indent=2))
        print("campaign engine recovered bit-identically from every fault plan")
    return 0


def build_spec(experiment: str, args) -> ExperimentSpec:
    """Map one CLI experiment request onto an :class:`ExperimentSpec`."""
    if experiment == "transfer":
        return ExperimentSpec.make(
            "transfer",
            scale=args.preset if args.preset is not None else args.scale,
            seed=args.seed,
            circuits=args.circuits,
            model=args.transfer_model,
        )
    if experiment == "seu-mbu":
        return ExperimentSpec.make(
            "seu-mbu",
            scale=args.scale,
            seed=args.seed,
            fault_model=args.fault_model,
        )
    return ExperimentSpec.make(experiment, scale=args.scale, seed=args.seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ["all", "campaign", "verify"],
        help="which experiments to run ('transfer' sweeps the cross-circuit "
        "matrix; 'campaign' drives the parallel fault-injection engine "
        "directly; 'verify' differential-tests the simulation engines on "
        "fuzzed circuits)",
    )
    parser.add_argument("--scale", default="mini", choices=["tiny", "mini", "full"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--preset",
        default=None,
        choices=["tiny", "mini", "full"],
        help="transfer experiment only: per-circuit dataset scale "
        "(defaults to --scale)",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        help="transfer experiment only: restrict the matrix to these circuits "
        "(default: the whole library)",
    )
    parser.add_argument(
        "--transfer-model",
        default="k-NN",
        help="transfer experiment only: paper model to transfer (default: k-NN)",
    )
    parser.add_argument(
        "--fault-model",
        default=None,
        help="fault model applied per injection site: a registry spec such as "
        "'seu', 'mbu:size=3,radius=1,seed=0', 'stuck0', 'stuck1' or "
        "'intermittent:period=8,on=2' (see docs/fault_models.md). The "
        "campaign command defaults to 'seu'; the seu-mbu experiment uses "
        "it as the transfer *target* label family (default: "
        "mbu:size=3,radius=1,seed=0)",
    )
    parser.add_argument("--out", type=Path, default=None, help="directory for CSV/JSON outputs")
    parser.add_argument("--regenerate", action="store_true", help="ignore the dataset cache")
    parser.add_argument(
        "--jobs", type=int, default=1, help="campaign worker processes (default: 1, serial)"
    )
    parser.add_argument(
        "--policy",
        default="flat",
        choices=list(SAMPLING_POLICIES),
        help="campaign sampling policy: 'flat' spends the full budget on "
        "every flip-flop (the paper protocol), 'sequential' retires "
        "flip-flops once their Wilson interval half-width falls under "
        "--target-margin and reallocates the freed budget (see "
        "docs/campaigns.md)",
    )
    parser.add_argument(
        "--target-margin",
        type=float,
        default=DEFAULT_TARGET_MARGIN,
        help="sequential policy only: retire a flip-flop once its 95%% "
        "Wilson interval half-width is at or under this value "
        f"(default: {DEFAULT_TARGET_MARGIN}, the paper's margin of error; "
        "0 disables early stopping — fixed-seed equivalence mode)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the whole invocation with cProfile and print the top "
        "functions by cumulative time",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="how many rows of the cProfile report to print (default: 25)",
    )
    parser.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        help="profile the whole invocation and write the stats to this file "
        "(valid pstats input: `python -m pstats <file>`); prints nothing "
        "unless --profile is also given",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write telemetry JSONL (provenance stamp, phase spans, final "
        "metrics snapshot) to this file; defaults to <out>/telemetry.jsonl "
        "when --out is set",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write the *full* telemetry event stream (spans, metrics and "
        "per-shard progress events) to this JSONL file",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="render campaign progress as a single self-updating terminal "
        "line (throughput + ETA) instead of per-shard log lines",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="dataset cache + campaign result store location "
        "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--injections",
        type=int,
        default=None,
        help="campaign command only: override the scale's injections per flip-flop",
    )
    parser.add_argument(
        "--circuit",
        default=None,
        help="campaign command only: run on this registered circuit instead "
        "of the scale's xgmac preset (e.g. a generated composite like "
        "'mesh_2k'; the circuit's registered failure criterion applies)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=25,
        help="verify command only: number of fuzzed circuits to cross-check "
        "(seeds --seed .. --seed + N - 1)",
    )
    parser.add_argument(
        "--chaos-trials",
        type=int,
        default=0,
        help="verify command only: additionally run N seeded chaos trials "
        "(worker kills, shard timeouts, torn store writes) asserting the "
        "supervised executor recovers bit-identically (see "
        "docs/robustness.md; default: 0, disabled)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="campaign command only: per-shard deadline in seconds; a shard "
        "exceeding it is retried on a rebuilt worker pool (default: no "
        "deadline)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        help="campaign command only: executions granted to one shard before "
        "it is quarantined (default: 3)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.injections is not None and args.injections < 1:
        parser.error("--injections must be >= 1")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.chaos_trials < 0:
        parser.error("--chaos-trials must be >= 0")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        parser.error("--shard-timeout must be positive")
    if args.shard_retries is not None and args.shard_retries < 1:
        parser.error("--shard-retries must be >= 1")
    if not 0.0 <= args.target_margin < 1.0:
        parser.error("--target-margin must be in [0, 1)")

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    out_dir = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    telemetry = build_telemetry(args, out_dir)
    profiler = None
    if args.profile or args.profile_out is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        with use_telemetry(telemetry):
            telemetry.emit_provenance(
                argv=list(argv) if argv is not None else sys.argv[1:],
                experiments=args.experiments,
                scale=args.scale,
                jobs=args.jobs,
                policy=args.policy,
            )
            return dispatch(args, cache_dir, out_dir)
    finally:
        if profiler is not None:
            profiler.disable()
            if args.profile_out is not None:
                args.profile_out.parent.mkdir(parents=True, exist_ok=True)
                profiler.dump_stats(str(args.profile_out))
            if args.profile:
                import pstats

                print(f"\n--- cProfile: top {args.profile_top} by cumulative time ---")
                pstats.Stats(profiler).sort_stats("cumulative").print_stats(
                    args.profile_top
                )
        telemetry.flush_metrics()
        telemetry.close()


def build_telemetry(args, out_dir: Optional[Path]) -> Telemetry:
    """Assemble the run's telemetry from the CLI flags.

    Every run with an ``--out`` directory records a provenance-stamped
    telemetry file even without explicit flags (``<out>/telemetry.jsonl``,
    metrics-event subset); ``--metrics-out`` relocates it, ``--trace-out``
    adds the full event stream, ``--live`` the terminal progress line.
    """
    telemetry = Telemetry()
    metrics_out = args.metrics_out
    if metrics_out is None and out_dir is not None:
        metrics_out = out_dir / "telemetry.jsonl"
    if metrics_out is not None:
        telemetry.add_sink(JsonlSink(metrics_out, events=METRICS_EVENTS))
    if args.trace_out is not None:
        telemetry.add_sink(JsonlSink(args.trace_out))
    if args.live:
        telemetry.add_sink(LiveProgressSink())
    return telemetry


def dispatch(args, cache_dir: Path, out_dir: Optional[Path]) -> int:
    """Run the requested commands/experiments (current telemetry applies)."""
    if "all" in args.experiments:
        requested = list(ALL_EXPERIMENTS)
    else:
        requested = [e for e in args.experiments if e not in ("campaign", "verify")]
    if "verify" in args.experiments:
        status = run_verify_command(args, out_dir)
        if status != 0:
            return status
        if not requested and "campaign" not in args.experiments:
            return 0
        print()
    if "campaign" in args.experiments:
        run_campaign_command(args, cache_dir, out_dir)
        if not requested:
            return 0
        print()

    runner = ExperimentRunner(
        context=ExperimentContext(
            cache_dir=cache_dir,
            jobs=args.jobs,
            regenerate=args.regenerate,
        )
    )
    if any(e != "transfer" for e in requested):
        print(f"Loading dataset (scale={args.scale}) ...", flush=True)
        dataset = runner.context.dataset(preset=args.scale)
        print(f"dataset: {dataset.n_samples} flip-flops x {dataset.n_features} features\n")

    for experiment in requested:
        print(f"=== {experiment} ===", flush=True)
        outcome = runner.run(build_spec(experiment, args))
        with get_telemetry().tracer.span("report", experiment=experiment):
            print(outcome.text)
            if out_dir:
                outcome.write_exports(out_dir)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
