"""The campaign engine: sharded execution, merging, caching, resume.

:class:`CampaignEngine` turns a :class:`~repro.campaigns.spec.CampaignSpec`
into a :class:`~repro.faultinjection.campaign.CampaignResult`:

1. consult the :class:`~repro.campaigns.store.CampaignStore` (if a cache
   directory is configured) — an exact snapshot hit costs zero forward
   simulations, and with the ``stream`` schedule a smaller snapshot seeds an
   incremental top-up;
2. plan the remaining injection draws as time-slot buckets and partition
   them into shards with balanced lane counts (on the flat path
   ``jobs * shards_per_job`` contiguous cycle ranges, or one range when a
   serial run leaves *shards_per_job* unset; on the sequential path a
   spread of ``jobs * shards_per_job`` gate shards);
3. run them as tasks ``(shards, tallies)`` through a
   :class:`~repro.campaigns.supervisor.SupervisedPool` — worker processes
   (``jobs > 1``), each of which rebuilds its own netlist/golden
   trace/:class:`FaultInjector` from the picklable spec, or in-process.
   Both enter through :func:`_run_task`, which simulates a task's buckets
   in one scheduler run and tallies the verdicts with :func:`run_buckets`.
   The supervisor retries failed/hung/lost tasks with backoff, rebuilds
   broken pools, quarantines tasks that keep failing (reported in
   :attr:`EngineReport.quarantined_shards` instead of raising), and
   degrades to serial execution when the pool itself is unreliable;
4. merge the per-flip-flop counters (pure integer sums, so the merged
   result does not depend on ``jobs`` or the shard layout) and
   checkpoint progress to the store on a throttled interval (with an exact
   write at every exit path).

``KeyboardInterrupt`` (or any other error) mid-campaign leaves a valid
checkpoint behind; the next run with the same spec resumes from it.  It
holds the finished shards, so a serial flat run in its default one-range
layout resumes from zero unless an explicit *shards_per_job* is given.  A
campaign that completed *with* quarantined shards is persisted as a
partial, never as a snapshot, so a rerun retries only the missing work.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..faultinjection.campaign import CampaignResult
from ..faultinjection.injector import FaultInjector
from ..faultinjection.scheduler import AdaptiveScheduler, SchedulerStats
from ..obs import (
    MetricsSnapshot,
    ProgressThrottle,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from . import warmstart
from .partition import (
    DrawStream,
    cycle_range_shards,
    legacy_buckets,
    partition_shards,
    stream_buckets,
    stream_buckets_ranged,
)
from .policy import ShardGate, make_policy, policy_signature, realized_margins
from .spec import CampaignContext, CampaignSpec, build_context, check_context
from .store import CampaignStore
from .supervisor import RetryPolicy, SupervisedPool

__all__ = ["CampaignEngine", "EngineReport", "RetryPolicy"]

#: Shards per worker process.  On the flat path a shard is a contiguous
#: cycle range of the pending buckets with a balanced lane count, and the
#: execution, retry and checkpoint unit: more shards than workers smooths
#: load balance and tightens checkpoint granularity, and each shard's run
#: sweeps only its own range.  A serial flat run without an explicit
#: ``shards_per_job`` cuts one range instead: every range is a separate
#: sweep that restarts the lane batch, so more ranges cost width-cycles and
#: shrink the check batches latent-state lane merging works on, and with
#: one worker there is no load to balance.  Flat counters do not depend on
#: the layout.  On the sequential path a shard is the *gate* partition
#: (each gets its own :class:`ShardGate`, so the counters depend on
#: ``jobs * shards_per_job``), while the task — all the gate shards one
#: worker owns in a round, swept by one scheduler pass — is the execution
#: and retry unit.
SHARDS_PER_JOB = 4

#: Minimum seconds between mid-run partial-checkpoint writes.  Checkpoints
#: are full-payload JSON documents; writing one per shard made store I/O
#: scale O(shards) with campaign size.  Exits (exception, quarantine) always
#: write exactly, so at most one throttle-interval of work is ever at risk.
CHECKPOINT_INTERVAL = 5.0


@dataclass
class EngineReport:
    """What one :meth:`CampaignEngine.run` actually did (vs. reused)."""

    jobs: int = 1
    cache_hit: bool = False
    base_injections: int = 0
    resumed_buckets: int = 0
    executed_buckets: int = 0
    executed_lanes: int = 0
    executed_forward_runs: int = 0
    n_shards: int = 0
    wall_seconds: float = 0.0
    #: Sequential-policy rounds driven (0 for the flat single-round path).
    rounds: int = 0
    #: Injections the sampling policy avoided vs. the flat protocol's
    #: ``nominal × n_ffs`` total (0 for flat).
    injections_saved: int = 0
    #: Shard re-executions the supervisor performed (failures, timeouts,
    #: worker losses — every dispatch beyond a shard's first).
    retries: int = 0
    #: Worker-pool teardown/rebuild cycles (hung or dead workers).
    pool_rebuilds: int = 0
    #: Whether the supervisor gave up on the pool and finished serially.
    degraded_serial: bool = False
    #: Tasks abandoned after exhausting their retry budget.  Non-empty
    #: means the result is incomplete (and was persisted as a partial, not
    #: a snapshot); each entry is a ``QuarantinedShard.to_dict()`` whose
    #: ``gate_shards`` counts the shards abandoned with it (1 when flat).
    quarantined_shards: List[Dict] = field(default_factory=list)
    #: Seconds spent building warm-cache entries (context, golden trace,
    #: shard runner) that were not already resident in this process.
    warmup_seconds: float = 0.0
    #: Warm-cache runner lookups that found a resident runner / had to
    #: build one (see :mod:`repro.campaigns.warmstart`).
    warm_hits: int = 0
    warm_misses: int = 0


@dataclass
class _Accumulator:
    """Mergeable per-flip-flop counters plus engine-level metrics."""

    ff: Dict[str, List[int]] = field(default_factory=dict)
    n_forward_runs: int = 0
    total_lane_cycles: int = 0
    wall_seconds: float = 0.0

    def merge_shard(self, payload: Dict) -> None:
        for name, (inj, fail, lat) in payload["ff"].items():
            rec = self.ff.setdefault(name, [0, 0, 0])
            rec[0] += inj
            rec[1] += fail
            rec[2] += lat
        self.n_forward_runs += payload["n_forward_runs"]
        self.total_lane_cycles += payload["total_lane_cycles"]

    def add_result(self, result: CampaignResult, ff_names: Sequence[str]) -> None:
        """Fold a stored snapshot's counters (for *ff_names*, measured
        flip-flops only) and recorded cost into this accumulator."""
        for name in ff_names:
            prior = result.results.get(name)
            if prior is not None and prior.n_injections > 0:
                rec = self.ff.setdefault(name, [0, 0, 0])
                rec[0] += prior.n_injections
                rec[1] += prior.n_failures
                rec[2] += prior.latency_sum
        self.n_forward_runs += result.n_forward_runs
        self.total_lane_cycles += result.total_lane_cycles
        self.wall_seconds += result.wall_seconds

    def to_payload(self) -> Dict:
        return {
            "ff": self.ff,
            "n_forward_runs": self.n_forward_runs,
            "total_lane_cycles": self.total_lane_cycles,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "_Accumulator":
        acc = cls(
            n_forward_runs=payload.get("n_forward_runs", 0),
            total_lane_cycles=payload.get("total_lane_cycles", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )
        acc.ff = {name: list(rec) for name, rec in payload.get("ff", {}).items()}
        return acc


def _shard_payload_error(
    payload: object, tallied: np.ndarray, ff_names: Set[str]
) -> Optional[str]:
    """Check one shard payload before it is merged.

    The supervisor applies this to every worker return value: a payload
    that fails (wrong type, non-integer counters, missing keys, a tally
    row or a skip for a flip-flop the campaign does not measure — e.g. a
    torn pickle or a chaos-malformed result) counts as a failed attempt
    and is retried/quarantined instead of corrupting the merged counters.
    *tallied* marks the measured flip-flops in the canonical order;
    *ff_names* names them.
    """
    if not isinstance(payload, dict):
        return f"expected dict payload, got {type(payload).__name__}"
    # Tallies travel packed (see warmstart.pack_tallies).
    packed_error = warmstart.validate_packed_tally(payload.get("ff"), tallied)
    if packed_error is not None:
        return packed_error
    for key in ("n_forward_runs", "total_lane_cycles"):
        if not isinstance(payload.get(key), int):
            return f"missing or invalid {key!r}"
    skipped = payload.get("skipped", {})
    if not isinstance(skipped, dict) or not all(
        k in ff_names and isinstance(v, int) for k, v in skipped.items()
    ):
        return "missing or invalid 'skipped'"
    return None


def run_buckets(
    scheduler: AdaptiveScheduler,
    buckets: Sequence[Tuple[int, Sequence[str]]],
    gates: Optional[Sequence[object]] = None,
    groups: Optional[Sequence[int]] = None,
) -> Tuple[Dict[str, List[int]], Dict[str, int], SchedulerStats]:
    """Simulate ``(cycle, ff_names)`` buckets in one scheduler run and tally
    the verdicts per flip-flop.

    *gates*, when given, hold one online policy gate per request group:
    ``admit(ff)`` may skip a draw before it costs a lane, and
    ``record(ff, failed)`` sees each verdict as its lane retires.  *groups*
    names each injection's gate, in bucket order (all group 0 when
    omitted).  Returns ``(counts, skipped, stats)``: ``counts[ff] =
    [injections, failures, latency_sum]`` of the simulated draws,
    ``skipped[ff]`` the draws a gate refused, and the run's scheduler
    statistics.
    """
    ff_index = scheduler.injector.ff_index
    names = [name for _cycle, lanes in buckets for name in lanes]
    admit = on_verdict = None
    if gates is not None:
        gate_of = [0] * len(names) if groups is None else groups
        admit = lambda key: gates[gate_of[key]].admit(names[key])  # noqa: E731
        on_verdict = lambda key, failed: gates[gate_of[key]].record(  # noqa: E731
            names[key], failed
        )
    outcome = scheduler.run(
        ((cycle, ff_index(name)) for cycle, lanes in buckets for name in lanes),
        admit=admit,
        on_verdict=on_verdict,
        groups=groups,
    )
    skipped_keys = frozenset(outcome.skipped)
    failed, latency = outcome.failed, outcome.latency
    counts: Dict[str, List[int]] = {}
    skipped: Dict[str, int] = {}
    for key, name in enumerate(names):
        if key in skipped_keys:
            skipped[name] = skipped.get(name, 0) + 1
            continue
        rec = counts.get(name)
        if rec is None:
            rec = counts[name] = [0, 0, 0]
        rec[0] += 1
        if failed[key]:
            rec[1] += 1
            rec[2] += latency[key]
    return counts, skipped, outcome.stats


class _ShardRunner:
    """Executes buckets against one injector (one per process).

    A task's buckets all feed one long-lived
    :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`, so lanes
    freed by early retirement are refilled with the task's later
    injections instead of draining per-bucket batches.  The gate shards of
    a sequential task run as separate scheduler request groups of the same
    passes.
    """

    def __init__(self, spec: CampaignSpec, context: CampaignContext) -> None:
        self.spec = spec
        golden = context.ensure_golden()
        self.injector = FaultInjector(
            context.netlist,
            context.workload.testbench,
            golden,
            context.criterion,
            fault_model=spec.fault_model,
        )
        self.scheduler = AdaptiveScheduler(self.injector)

    def run_shard(
        self,
        buckets: Sequence[Tuple[int, Sequence[str]]],
        gates: Optional[Sequence[ShardGate]] = None,
        groups: Optional[Sequence[int]] = None,
        attempt: int = 1,
    ) -> Dict:
        """Simulate a task's buckets; return mergeable counters.

        *gates* (one :class:`~repro.campaigns.policy.ShardGate` per gate
        shard) and *groups* are those of :func:`run_buckets`: each gate shard
        runs as its own request group and sees only its own verdicts.  Draws
        a gate skipped are returned in the payload's ``"skipped"`` map — they
        consumed their draw-stream indices without executing.

        *attempt* is the supervisor's 1-based dispatch ordinal for this
        shard.  Simulation is attempt-independent (retries must stay
        bit-identical); only the chaos wrapper reads it, to make fault
        decisions deterministic per (shard, attempt).

        The payload also carries the shard's wall time (feeds the engine's
        worker-utilization gauge) and a lane-cycles/sec gauge observation
        in the *current* telemetry registry — which is the worker's own
        throwaway registry when running in a pool process, and the engine's
        when running serially.
        """
        del attempt  # real simulation never varies across retries
        start = time.perf_counter()
        counts, skipped, stats = run_buckets(
            self.scheduler, buckets, gates=gates, groups=groups
        )
        wall = time.perf_counter() - start
        payload = {
            # Dense index/counts transport instead of a name-keyed dict: on
            # wide circuits the flip-flop name strings dominate the result
            # pickle.  The engine rehydrates against the netlist's order.
            "ff": warmstart.pack_tallies(counts, self.injector.ff_index),
            "n_forward_runs": stats.n_passes,
            "total_lane_cycles": stats.lane_cycles,
            "skipped": skipped,
            "wall_seconds": wall,
        }
        registry = get_telemetry().registry
        registry.timer("executor.shard_seconds").observe(wall)
        if wall > 0:
            registry.gauge("sim.compiled.lane_cycles_per_sec").set(
                stats.simulated_lane_cycles() / wall
            )
        return payload


# --------------------------------------------------- worker process hooks

_WORKER = None
#: The spec this worker was initialized for.  Distinct from ``_WORKER.spec``:
#: a warm-cache runner is shared by every spec of its campaign family, so its
#: ``.spec`` may differ in the family-excluded fields (``n_injections``,
#: ``policy``, ``target_margin``) — anything policy-shaped must derive from
#: the init-time spec, not the runner's.
_WORKER_SPEC: Optional[CampaignSpec] = None


def _worker_init(spec_payload: Dict, chaos_payload: Optional[Dict] = None) -> None:
    global _WORKER, _WORKER_SPEC
    # Forked workers inherit the parent's telemetry — including any open
    # sink file handles — so replace it before building anything, or every
    # worker's synthesize/golden spans would interleave into the parent's
    # stream.
    set_telemetry(Telemetry())
    spec = _WORKER_SPEC = CampaignSpec.from_dict(spec_payload)
    # Fork-start workers inherit the parent's warm cache: resolve the
    # resident runner (netlist, golden trace, compiled kernels already
    # built) instead of re-deriving everything from the spec.  Spawn-start
    # platforms and standalone workers miss and cold-build as before.
    runner = warmstart.resolve_runner(spec)
    if runner is None:
        runner = _ShardRunner(spec, build_context(spec))
    if chaos_payload is not None:
        # Imported lazily: verify depends on campaigns, not the reverse.
        from ..verify.chaos import ChaosShardRunner, ChaosSpec

        runner = ChaosShardRunner(
            runner, ChaosSpec.from_dict(chaos_payload), in_worker=True
        )
    _WORKER = runner


def _run_task(runner, spec: CampaignSpec, task, attempt: int) -> Dict:
    """Run one task on *runner*: the single entry point of pool workers and
    of in-process execution.

    *task* is ``(shards, tallies)``.  A flat task is ``([shard], None)``
    and runs ungated.  A sequential task holds the round's gate shards one
    worker owns plus a snapshot of the campaign-wide ``[n, k, consumed]``
    tallies at the round boundary: each shard gets its own
    :class:`~repro.campaigns.policy.ShardGate` of *spec*'s policy, built
    from a copy of the tallies (so a retried attempt re-gates from the same
    state), and runs as its own request group of one scheduler sweep.
    """
    shards, tallies = task
    buckets = [bucket for shard in shards for bucket in shard]
    if tallies is None:
        return runner.run_shard(buckets, attempt=attempt)
    policy = make_policy(spec)
    gates = [ShardGate(policy, tallies) for _shard in shards]
    groups = [
        index
        for index, shard in enumerate(shards)
        for _cycle, lanes in shard
        for _name in lanes
    ]
    return runner.run_shard(buckets, gates=gates, groups=groups, attempt=attempt)


def _worker_run_task(task: Tuple[int, Tuple[List, Optional[Dict]]]) -> Dict:
    """Pool entry point: *task* is ``(attempt, (shards, tallies))``.

    The supervisor threads the 1-based attempt ordinal through so the chaos
    wrapper (when installed) makes deterministic per-attempt fault
    decisions.  The policy comes from the worker's init-time spec, not the
    runner's (a warm runner may carry a family sibling's).
    """
    attempt, work = task
    assert _WORKER is not None, "worker used before initialization"
    # Fresh per-task telemetry: the task's metrics travel back inside the
    # payload as a mergeable snapshot (the executor absorbs them), instead
    # of accumulating invisibly in the worker process.
    with use_telemetry(Telemetry()) as telemetry:
        payload = _run_task(_WORKER, _WORKER_SPEC, work, attempt)
        payload["metrics"] = telemetry.registry.snapshot().to_payload()
    return payload


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class CampaignEngine:
    """Parallel, cached, resumable, fault-tolerant campaign execution.

    Parameters
    ----------
    spec:
        Self-contained campaign description.
    jobs:
        Worker processes; ``1`` (default) runs everything in-process.
    cache_dir:
        Root of the result store (``<cache_dir>/campaigns/``).  ``None``
        disables persistence (no snapshots, no resume).
    context:
        Optional pre-built environment for the calling process, e.g. when
        the caller needs the same netlist/golden trace for feature
        extraction.  Workers always rebuild their own from the spec.
    shards_per_job:
        Shards per worker.  ``None`` (default) means
        :data:`SHARDS_PER_JOB`, except that a serial (``jobs=1``) flat run
        then sweeps its whole window as one cycle range; an int sets both
        paths.  Flat counters do not depend on it; sequential counters do.
    progress:
        ``progress(done_shards, total_shards)`` callback.  Throttled to at
        most one call per *progress_interval* seconds (plus, always, the
        final ``(total, total)`` call); the same throttle drives the
        telemetry ``progress`` events the live sink renders.  A sequential
        run reports each round's tasks as one such batch.
    progress_interval:
        Minimum seconds between forwarded progress notifications
        (default 0.1); ``0`` restores the historical call-per-shard
        behavior.
    retry:
        :class:`~repro.campaigns.supervisor.RetryPolicy` governing shard
        deadlines, retry budget, backoff, and pool-rebuild limits.
        Defaults to ``RetryPolicy()`` (3 attempts, no deadline).
    chaos:
        Optional :class:`~repro.verify.chaos.ChaosSpec`.  When set, every
        shard runner (worker and serial) is wrapped in a
        :class:`~repro.verify.chaos.ChaosShardRunner` that injects
        deterministic faults — the self-test hook for the supervisor.
    checkpoint_interval:
        Minimum seconds between mid-run partial-checkpoint writes
        (default :data:`CHECKPOINT_INTERVAL`); ``0`` restores the
        historical write-per-shard behavior.  Exits always write exactly.
    store:
        Pre-built :class:`CampaignStore` (overrides *cache_dir*); the
        chaos harness uses this to inject torn-write faults at the store
        boundary.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        context: Optional[CampaignContext] = None,
        shards_per_job: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        progress_interval: float = 0.1,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        checkpoint_interval: float = CHECKPOINT_INTERVAL,
        store: Optional[CampaignStore] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.spec = spec
        self.jobs = jobs
        if store is not None:
            self.store: Optional[CampaignStore] = store
        else:
            self.store = (
                CampaignStore(Path(cache_dir) / "campaigns")
                if cache_dir is not None
                else None
            )
        if context is not None:
            check_context(spec, context)
        self._context = context
        self._run_start = time.monotonic()
        self.shards_per_job = (
            None if shards_per_job is None else max(1, shards_per_job)
        )
        self.progress = progress
        self.progress_interval = progress_interval
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.checkpoint_interval = checkpoint_interval
        self._last_checkpoint = 0.0
        self._serial: Optional[object] = None
        self._busy_seconds = 0.0
        self._warmup_seconds = 0.0
        self._context_warmed = False
        self._ff_order_cache: Optional[List[str]] = None
        self.last_report = EngineReport()
        #: Bookkeeping of the most recent sequential-policy run (rounds,
        #: injections saved, realized margins); empty for flat runs.
        self.last_policy_meta: Dict = {}

    @property
    def _gate_shards(self) -> int:
        """Gate shards per sequential round: the layout sequential counters
        depend on, recorded with every policy snapshot and checkpoint."""
        return self.jobs * (self.shards_per_job or SHARDS_PER_JOB)

    @property
    def _flat_shards(self) -> int:
        """Cycle ranges a flat run cuts its pending buckets into."""
        if self.shards_per_job is None and self.jobs == 1:
            return 1
        return self._gate_shards

    @property
    def context(self) -> CampaignContext:
        """The execution environment, resolved through the process-wide warm
        cache: a caller-provided context is adopted into the cache (fixing
        the historical double build on the serial path), an absent one
        resolves to the family's resident context or is built exactly once
        per process (see :mod:`repro.campaigns.warmstart`)."""
        if not self._context_warmed:
            start = time.perf_counter()
            self._context, hit = warmstart.warm_context(self.spec, self._context)
            self._context_warmed = True
            if not hit:
                self._warmup_seconds += time.perf_counter() - start
        return self._context

    def _ff_order(self) -> List[str]:
        """Canonical flip-flop order (netlist insertion order — the same
        ordering every simulator's ``ff_index`` assigns), used to rehydrate
        packed shard tallies."""
        if self._ff_order_cache is None:
            self._ff_order_cache = [ff.name for ff in self.context.netlist.flip_flops()]
        return self._ff_order_cache

    def _warm_runner(self) -> object:
        """Parent-side warm-up: the resident (unwrapped) shard runner for
        this spec, built on first use and reused by every later engine,
        serial fallback and forked worker of the same family."""
        runner, hit, warmup = warmstart.ensure_runner(
            self.spec, _ShardRunner, context=self._context
        )
        if hit:
            self.last_report.warm_hits += 1
        else:
            self.last_report.warm_misses += 1
            self._warmup_seconds += warmup
        return runner

    def _run_serial_task(self, task, attempt: int) -> Dict:
        """In-process execution of one task, shared by serial runs and the
        supervisor's degraded-pool fallback, on the resident shard runner
        (chaos-wrapped when the engine carries a chaos spec)."""
        if self._serial is None:
            runner = self._warm_runner()
            if self.chaos is not None:
                from ..verify.chaos import ChaosShardRunner

                runner = ChaosShardRunner(runner, self.chaos, in_worker=False)
            self._serial = runner
        return _run_task(self._serial, self.spec, task, attempt)

    def _absorb_supervisor(self, sup: SupervisedPool, report: EngineReport) -> None:
        report.retries += sup.retries
        report.pool_rebuilds += sup.rebuilds
        report.degraded_serial = report.degraded_serial or sup.degraded

    # ----------------------------------------------------------------- run

    def run(self, resume: bool = True) -> CampaignResult:
        """Execute (or load, or top up) the campaign described by the spec."""
        spec = self.spec
        with get_telemetry().tracer.span(
            "campaign",
            circuit=spec.circuit,
            n_injections=spec.n_injections,
            schedule=spec.schedule,
            policy=spec.policy,
            jobs=self.jobs,
        ):
            self._run_start = self._last_checkpoint = time.monotonic()
            self.last_report = EngineReport(jobs=self.jobs)
            if spec.policy == "sequential":
                return self._run_sequential(resume)
            return self._run(resume)

    def _run(self, resume: bool) -> CampaignResult:
        spec = self.spec
        report = self.last_report

        if self.store is not None:
            exact = self.store.load_exact(spec)
            if exact is not None:
                report.cache_hit = True
                report.base_injections = spec.n_injections
                report.wall_seconds = time.monotonic() - self._run_start
                return exact

        base: Optional[CampaignResult] = None
        base_n = 0
        if self.store is not None and spec.schedule == "stream":
            found = self.store.best_snapshot(spec)
            if found is not None:
                base_n, base = found
                get_telemetry().registry.counter("store.topups").inc()
        report.base_injections = base_n

        context = self.context
        window = context.window_cycles()
        ff_names = context.ff_names(spec)
        if spec.schedule == "legacy":
            buckets = legacy_buckets(spec, window, ff_names)
        else:
            buckets = stream_buckets(
                spec, window, ff_names, start=base_n, stop=spec.n_injections
            )

        accum = _Accumulator()
        done_cycles: Set[int] = set()
        if self.store is not None and resume:
            checkpoint = self.store.load_partial(spec, base_n, spec.n_injections)
            if checkpoint is not None:
                done_cycles, accum_payload = checkpoint
                accum = _Accumulator.from_payload(accum_payload)
                report.resumed_buckets = len(done_cycles)
        pending = [b for b in buckets if b.cycle not in done_cycles]

        n_shards = min(len(pending), self._flat_shards)
        shards = cycle_range_shards(pending, n_shards) if pending else []
        report.n_shards = len(shards)
        tasks = [([[(b.cycle, b.lanes) for b in shard]], None) for shard in shards]

        sup = self._supervised_pool(min(self.jobs, len(tasks)))
        clean = False
        try:
            outcomes = self._outcomes(sup, tasks, accum, report)
            for done, (key, payload) in enumerate(outcomes, 1):
                if payload is None:
                    continue
                done_cycles.update(cycle for cycle, _lanes in tasks[key][0][0])
                if done == len(tasks):
                    continue  # the final state becomes a snapshot
                # Checkpoints are full-payload JSON writes: throttle them.
                # The exit paths always write, so at most one interval of
                # work is ever at risk.
                if time.monotonic() - self._last_checkpoint < self.checkpoint_interval:
                    get_telemetry().registry.counter("store.checkpoint_skips").inc()
                else:
                    self._checkpoint(base_n, done_cycles, accum)
            clean = True
        except BaseException:
            self._checkpoint(base_n, done_cycles, accum)
            raise
        finally:
            sup.shutdown(clean)
            self._absorb_supervisor(sup, report)

        result = self._assemble(ff_names, accum, base)
        if self.store is not None:
            if report.quarantined_shards:
                # Incomplete counters must never be served as an exact hit:
                # persist them as a partial so a rerun retries only the
                # quarantined buckets.
                self._checkpoint(base_n, done_cycles, accum)
                get_telemetry().registry.counter(
                    "robustness.incomplete_campaigns"
                ).inc()
            else:
                self.store.save_snapshot(spec, result)
        self._record_run_metrics(report)
        return result

    def _record_run_metrics(self, report: EngineReport) -> None:
        """End-of-run wall time and rollups: throughput, worker
        utilization, warm-up."""
        report.wall_seconds = time.monotonic() - self._run_start
        registry = get_telemetry().registry
        report.warmup_seconds = self._warmup_seconds
        registry.timer("engine.warmup_seconds").observe(self._warmup_seconds)
        if report.wall_seconds > 0 and report.executed_lanes:
            registry.gauge("campaign.injections_per_sec").set(
                report.executed_lanes / report.wall_seconds
            )
        if report.wall_seconds > 0 and self._busy_seconds > 0:
            registry.gauge("campaign.worker_utilization").set(
                min(1.0, self._busy_seconds / (self.jobs * report.wall_seconds))
            )

    # -------------------------------------------------- sequential sampling

    def _run_sequential(self, resume: bool) -> CampaignResult:
        """Round-based adaptive campaign driven by the sampling policy.

        Each round asks the policy for per-flip-flop draw ranges
        (:meth:`~repro.campaigns.policy.SamplingPolicy.allocate`), schedules
        exactly those prefix-stable draws, executes them gate-checked (a
        flip-flop whose Wilson interval collapses mid-shard stops consuming
        lanes immediately), merges the tallies and repeats until the policy
        allocates nothing.  Tallies are ``{ff: [n, k, consumed]}`` — see
        :class:`~repro.campaigns.policy.SamplingPolicy` for the invariant
        ``k <= n <= consumed`` that keeps draw indices single-use even when
        gating skips scheduled draws.

        Each round's buckets are split into ``jobs * shards_per_job`` gate
        shards, each gated by its own
        :class:`~repro.campaigns.policy.ShardGate`.  Results are
        deterministic for that layout; unlike the flat path they may vary
        with it, because gating decisions depend on shard-local verdict
        order — so store snapshots and round checkpoints record the layout
        and a different one misses.  ``target_margin=0.0`` never retires
        anything and reproduces the flat counters bit-for-bit.

        Every worker receives one task per round holding the gate shards it
        owns (all of them at ``jobs=1``); the task's shards run as request
        groups of one scheduler pass, so the window is swept once per pass
        instead of once per shard.  Tasks run through the same
        :class:`SupervisedPool` as the flat path (one supervisor — and one
        warm worker pool — for the whole campaign).  A quarantined task's
        draws — every gate shard it carries — are *abandoned*: their
        ``consumed`` indices advance without executing, so the policy draws
        fresh replacement indices next round instead of re-allocating the
        poisoned ranges forever.
        """
        spec = self.spec
        report = self.last_report
        signature = policy_signature(spec)
        gate_shards = self._gate_shards
        registry = get_telemetry().registry

        if self.store is not None:
            found = self.store.load_policy_snapshot(
                spec, signature, gate_shards=gate_shards
            )
            if found is not None:
                result, meta = found
                report.cache_hit = True
                report.rounds = int(meta.get("rounds", 0))
                report.injections_saved = int(meta.get("injections_saved", 0))
                report.wall_seconds = time.monotonic() - self._run_start
                self.last_policy_meta = meta
                return result

        context = self.context
        window = context.window_cycles()
        ff_names = context.ff_names(spec)
        policy = make_policy(spec)

        tallies: Dict[str, List[int]] = {name: [0, 0, 0] for name in ff_names}
        accum = _Accumulator()
        resumed = False
        if self.store is not None and resume:
            checkpoint = self.store.load_policy_partial(
                spec, signature, gate_shards=gate_shards
            )
            if checkpoint is not None and set(checkpoint[0]) == set(ff_names):
                tallies, accum_payload = checkpoint
                accum = _Accumulator.from_payload(accum_payload)
                resumed = True
        if not resumed and self.store is not None:
            # A flat snapshot of the family is a valid prefix of every
            # flip-flop's draw stream: seed the tallies from it and only
            # simulate what the policy wants beyond it.
            found = self.store.best_snapshot(spec)
            if found is not None:
                base_n, base = found
                report.base_injections = base_n
                registry.counter("store.topups").inc()
                accum.add_result(base, ff_names)
                for name, (n, k, _latency) in accum.ff.items():
                    tallies[name] = [n, k, n]

        sup = self._supervised_pool(self.jobs)
        # The policy checkpoint is a per-flip-flop *cursor* (``consumed``),
        # which is only truthful at round boundaries: a completed round
        # executed (or deliberately gate-skipped) every draw of its
        # contiguous allocation, so the cursor really is a stream prefix.
        # Mid-round, the merged shards hold an arbitrary *subset* of the
        # round's slots — checkpointing that state would make a resumed run
        # re-execute some draws and silently skip others.  The exception
        # path therefore persists the last round-*start* state (the one
        # every gate of the round starts from), discarding at most one
        # round of work in exchange for bit-identical resume.
        safe_tallies = {name: list(rec) for name, rec in tallies.items()}
        safe_accum = _Accumulator.from_payload(accum.to_payload())
        clean = False
        # Every flip-flop's draw stream, extended round by round.
        streams: Dict[str, DrawStream] = {}
        try:
            while True:
                allocation = policy.allocate(tallies, len(window))
                if not allocation:
                    break
                report.rounds += 1
                buckets = stream_buckets_ranged(spec, window, allocation, streams)
                if not buckets:
                    break
                shards = partition_shards(buckets, min(len(buckets), gate_shards))
                report.n_shards += len(shards)
                # One task per worker: worker w owns every n_tasks-th shard.
                n_tasks = min(self.jobs, len(shards))
                tasks = [
                    ([[(b.cycle, b.lanes) for b in s] for s in owned], safe_tallies)
                    for owned in (shards[w::n_tasks] for w in range(n_tasks))
                ]
                for key, payload in self._outcomes(sup, tasks, accum, report):
                    if payload is None:
                        # The quarantined task's draws are abandoned, but
                        # they still consumed their stream indices: advance
                        # `consumed` so the policy allocates *fresh* draws
                        # instead of retrying the same poisoned ranges
                        # every round (which would never terminate).
                        abandoned = [
                            name
                            for shard in tasks[key][0]
                            for _cycle, lanes in shard
                            for name in lanes
                        ]
                        for name in abandoned:
                            tallies[name][2] += 1
                        registry.counter("robustness.abandoned_draws").inc(
                            len(abandoned)
                        )
                        continue
                    # Executed and gate-skipped draws both consumed their
                    # stream indices; advancing per payload keeps the
                    # checkpoint invariant (n <= consumed) intact even if a
                    # later task of the round never completes.
                    for name, (n, k, _latency) in payload["ff"].items():
                        tally = tallies[name]
                        tally[0] += n
                        tally[1] += k
                        tally[2] += n
                    for name, count in payload.get("skipped", {}).items():
                        tallies[name][2] += count
                        registry.counter("policy.shard_skips").inc(count)
                self._policy_checkpoint(signature, tallies, accum)
                safe_tallies = {name: list(rec) for name, rec in tallies.items()}
                safe_accum = _Accumulator.from_payload(accum.to_payload())
            clean = True
        except BaseException:
            self._policy_checkpoint(signature, safe_tallies, safe_accum)
            raise
        finally:
            # Clean exits let in-flight worker teardown finish
            # (close/join); the exception path terminates immediately.
            sup.shutdown(clean)
            self._absorb_supervisor(sup, report)

        result = self._assemble(ff_names, accum)
        total_executed = sum(rec[0] for rec in tallies.values())
        flat_total = spec.n_injections * len(ff_names)
        saved = max(0, flat_total - total_executed)
        report.injections_saved = saved
        registry.counter("policy.rounds").inc(report.rounds)
        registry.counter("policy.injections_saved").inc(saved)
        margins = realized_margins(tallies)
        for name in ff_names:
            registry.histogram("policy.stopping_time").observe(tallies[name][0])
        worst = max(margins.values()) if margins else float("nan")
        mean = sum(margins.values()) / len(margins) if margins else float("nan")
        if margins:
            registry.gauge("policy.realized_margin").set(worst)
            registry.gauge("policy.realized_margin_mean").set(mean)
        meta = {
            "policy": spec.policy,
            "nominal": spec.n_injections,
            "target_margin": spec.target_margin,
            "rounds": report.rounds,
            "total_injections": total_executed,
            "flat_injections": flat_total,
            "injections_saved": saved,
            "realized_margin_max": worst,
            "realized_margin_mean": mean,
            "quarantined_shards": len(report.quarantined_shards),
        }
        self.last_policy_meta = meta
        if self.store is not None:
            if report.quarantined_shards:
                self._policy_checkpoint(signature, tallies, accum)
                registry.counter("robustness.incomplete_campaigns").inc()
            else:
                self.store.save_policy_snapshot(
                    spec, signature, result, meta, gate_shards=gate_shards
                )
        self._record_run_metrics(report)
        return result

    def _policy_checkpoint(
        self, signature: str, tallies: Dict[str, List[int]], accum: _Accumulator
    ) -> None:
        if self.store is not None and any(rec[2] for rec in tallies.values()):
            self.store.save_policy_partial(
                self.spec,
                signature,
                tallies,
                self._checkpoint_payload(accum),
                gate_shards=self._gate_shards,
            )

    # ------------------------------------------------------------ execution

    def _supervised_pool(self, jobs: int) -> SupervisedPool:
        """The supervisor both drivers dispatch tasks through: *jobs*
        workers forked from a warm parent, or :meth:`_run_serial_task`
        in-process at ``jobs <= 1`` (no pool is built then)."""
        mp_ctx = _mp_context()
        if jobs > 1 and mp_ctx.get_start_method() == "fork":
            # Warm the cache before the pool forks: workers (and every
            # later pool rebuild) inherit the resident runner instead of
            # each paying a cold build.
            self._warm_runner()
        chaos_payload = self.chaos.to_dict() if self.chaos is not None else None
        measured = set(self.context.ff_names(self.spec))
        tallied = np.array([name in measured for name in self._ff_order()])
        return SupervisedPool(
            _worker_run_task,
            jobs=jobs,
            initializer=_worker_init,
            initargs=(self.spec.to_dict(), chaos_payload),
            retry=self.retry,
            serial_fn=self._run_serial_task,
            validate=lambda payload: _shard_payload_error(payload, tallied, measured),
            mp_context=mp_ctx,
        )

    def _progress_notifier(self, report: EngineReport) -> ProgressThrottle:
        """Throttled ``(done, total)`` hook for one batch of tasks (a flat
        run or one sequential round): it sets the throughput gauge, emits
        the telemetry ``progress`` event the live sink renders and forwards
        to the *progress* callback."""
        telemetry = get_telemetry()
        registry = telemetry.registry
        start = time.monotonic()
        lanes_before = report.executed_lanes

        def notify(done_shards: int, total_shards: int) -> None:
            elapsed = time.monotonic() - start
            lanes = report.executed_lanes - lanes_before
            rate = lanes / elapsed if elapsed > 0 else 0.0
            if rate > 0:
                registry.gauge("campaign.injections_per_sec").set(rate)
            if telemetry.active:
                remaining = total_shards - done_shards
                telemetry.emit(
                    {
                        "event": "progress",
                        "scope": "campaign",
                        "unit": "shards",
                        "done": done_shards,
                        "total": total_shards,
                        "injections": report.executed_lanes,
                        "injections_per_sec": rate,
                        "eta_seconds": (
                            remaining * elapsed / done_shards if done_shards else None
                        ),
                    }
                )
            if self.progress is not None:
                self.progress(done_shards, total_shards)

        return ProgressThrottle(notify, min_interval=self.progress_interval)

    def _outcomes(
        self,
        sup: SupervisedPool,
        tasks: List[Tuple[List, Optional[Dict]]],
        accum: _Accumulator,
        report: EngineReport,
    ) -> Iterator[Tuple[int, Optional[Dict]]]:
        """Run *tasks* (a flat run or one sequential round) through *sup*.

        Yields ``(key, payload)`` per task in completion order, after the
        payload's tallies, engine counters and (for a worker task) metrics
        snapshot are merged into *accum*, *report* and the registry; a
        quarantined task is reported and yields ``(key, None)``.  Progress
        is notified once the caller has handled each outcome.
        """
        registry = get_telemetry().registry
        throttled = self._progress_notifier(report)
        for done, outcome in enumerate(sup.run(tasks), 1):
            payload = outcome.payload
            shards = tasks[outcome.key][0]
            if payload is None:
                entry = outcome.quarantine.to_dict()
                entry["gate_shards"] = len(shards)
                report.quarantined_shards.append(entry)
            else:
                payload["ff"] = warmstart.unpack_tallies(
                    payload["ff"], self._ff_order()
                )
                accum.merge_shard(payload)
                lanes = sum(rec[0] for rec in payload["ff"].values())
                report.executed_buckets += sum(len(shard) for shard in shards)
                report.executed_forward_runs += payload["n_forward_runs"]
                report.executed_lanes += lanes
                self._busy_seconds += payload.get("wall_seconds", 0.0)
                metrics = payload.get("metrics")
                if metrics:  # worker task: absorb its snapshot
                    registry.absorb(MetricsSnapshot.from_payload(metrics))
                registry.counter("campaign.shard_merges").inc()
                registry.counter("campaign.injections").inc(lanes)
            yield outcome.key, payload
            throttled(done, len(tasks))

    # ------------------------------------------------------------- plumbing

    def _checkpoint(
        self, base_n: int, done_cycles: Set[int], accum: _Accumulator
    ) -> None:
        if self.store is not None and done_cycles:
            self.store.save_partial(
                self.spec,
                base_n,
                self.spec.n_injections,
                done_cycles,
                self._checkpoint_payload(accum),
            )
            self._last_checkpoint = time.monotonic()

    def _checkpoint_payload(self, accum: _Accumulator) -> Dict:
        """*accum* as a checkpoint payload: its wall time (that of
        interrupted predecessors) plus this run's so far."""
        payload = accum.to_payload()
        payload["wall_seconds"] += time.monotonic() - self._run_start
        return payload

    def _assemble(
        self,
        ff_names: Sequence[str],
        accum: _Accumulator,
        base: Optional[CampaignResult] = None,
    ) -> CampaignResult:
        """The run's result: *accum*'s counters plus those of *base*, the
        stored snapshot a flat top-up extends.  The wall time adds the time
        both recorded to this run's."""
        if base is not None:
            accum = _Accumulator.from_payload(accum.to_payload())
            accum.add_result(base, ff_names)
        spec = self.spec
        return CampaignResult.from_counts(
            spec.circuit,
            spec.n_injections,
            spec.seed,
            ff_names,
            accum.ff,
            n_forward_runs=accum.n_forward_runs,
            total_lane_cycles=accum.total_lane_cycles,
            wall_seconds=accum.wall_seconds + (time.monotonic() - self._run_start),
        )
