"""Deterministic chaos harness: fault injection for the fault injector.

The campaign engine claims to survive worker crashes, hangs, malformed
payloads and torn store writes (see
:mod:`repro.campaigns.supervisor`).  This module turns that claim into an
executable property, exactly the way :mod:`repro.verify.diff` does for
simulation correctness: a seeded :class:`ChaosSpec` decides — purely as a
hash of ``(seed, fault kind, shard fingerprint, attempt)`` — which shard
executions get killed, delayed, hung or corrupted, so every chaotic run is
reproducible bit-for-bit.  The property under test: **a campaign executed
under chaos recovers to a result bit-identical to the fault-free run**,
with the recovery visible in ``robustness.*`` telemetry and the
:class:`~repro.campaigns.executor.EngineReport`.

Pieces:

* :class:`ChaosSpec` — picklable fault plan (rates + seed); travels to
  worker processes inside the pool initializer args;
* :class:`ChaosShardRunner` — wraps the executor's ``_ShardRunner`` and
  applies the plan around each shard execution: ``os._exit`` in pool
  workers (a real SIGKILL-grade death), :class:`ChaosFault` in-process;
* :class:`ChaosCampaignStore` — a :class:`CampaignStore` whose writes are
  deterministically torn mid-document, exercising the store's
  corrupt-file quarantine path;
* :func:`run_chaos_trials` — the suite entry point used by
  ``repro.experiments verify --chaos-trials`` and the CI ``chaos`` job.

Fault decisions depend on the *attempt* ordinal, so a shard killed on its
first dispatch runs clean on the retry (``max_faults_per_site`` bounds how
many attempts a site can sabotage) — except ``poison_cycle``, which marks
one time-slot's shard permanently broken to exercise quarantine.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..campaigns.executor import SHARDS_PER_JOB, CampaignEngine
from ..campaigns.spec import CampaignSpec
from ..campaigns.store import CampaignStore
from ..campaigns.supervisor import RetryPolicy
from ..obs import Telemetry, get_telemetry, use_telemetry

__all__ = [
    "ChaosFault",
    "ChaosSpec",
    "ChaosShardRunner",
    "ChaosCampaignStore",
    "ChaosTrialError",
    "ChaosTrialReport",
    "TRIAL_FLAVORS",
    "run_chaos_trials",
    "shard_fingerprint",
]


class ChaosFault(RuntimeError):
    """An injected (deliberate) failure — never a real engine bug."""


class ChaosTrialError(AssertionError):
    """A chaos trial diverged from its fault-free baseline."""


def shard_fingerprint(buckets: Sequence[Tuple[int, Sequence[str]]]) -> str:
    """Stable identity of a shard's work, independent of dispatch order."""
    digest = hashlib.sha256()
    for cycle, lanes in buckets:
        digest.update(f"{cycle}:{','.join(lanes)};".encode())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault plan.  All rates are per (shard, attempt) site.

    ``max_faults_per_site`` bounds sabotage per site: with the default 1,
    a shard's first attempt may be faulted but its retry runs clean — so
    campaigns always terminate.  ``poison_cycle`` ignores that bound and
    permanently breaks the shard containing that injection time slot,
    forcing the supervisor's quarantine path.
    """

    seed: int = 0
    kill_rate: float = 0.0
    #: Exit status for chaos worker kills — nonzero so the supervisor's
    #: dead-worker watchdog (which ignores clean ``maxtasksperchild``
    #: recycling exits) sees an abnormal death.
    kill_exit_code: int = 17
    hang_rate: float = 0.0
    hang_seconds: float = 20.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.005
    malform_rate: float = 0.0
    torn_write_rate: float = 0.0
    max_faults_per_site: int = 1
    poison_cycle: Optional[int] = None

    def fires(self, kind: str, fingerprint: str, attempt: int, rate: float) -> bool:
        """Deterministic Bernoulli(rate) draw for one fault site."""
        if rate <= 0.0 or attempt > self.max_faults_per_site:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{fingerprint}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "kill_rate": self.kill_rate,
            "kill_exit_code": self.kill_exit_code,
            "hang_rate": self.hang_rate,
            "hang_seconds": self.hang_seconds,
            "delay_rate": self.delay_rate,
            "delay_seconds": self.delay_seconds,
            "malform_rate": self.malform_rate,
            "torn_write_rate": self.torn_write_rate,
            "max_faults_per_site": self.max_faults_per_site,
            "poison_cycle": self.poison_cycle,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ChaosSpec":
        return cls(**payload)


class ChaosShardRunner:
    """Wraps a shard runner and sabotages executions per the chaos plan.

    *in_worker* selects the blast radius: in a pool worker a "kill" is a
    real ``os._exit`` (the process dies mid-task, exactly like a segfault
    or OOM kill) and a "hang" really sleeps; in-process (serial runner,
    degraded-pool fallback) both degrade to :class:`ChaosFault`, because
    killing or wedging the engine itself would take the supervisor with it.
    """

    def __init__(self, inner, chaos: ChaosSpec, in_worker: bool) -> None:
        self.inner = inner
        self.chaos = chaos
        self.in_worker = in_worker

    def run_shard(
        self,
        buckets: Sequence[Tuple[int, Sequence[str]]],
        gates=None,
        groups=None,
        attempt: int = 1,
    ) -> Dict:
        chaos = self.chaos
        registry = get_telemetry().registry
        fingerprint = shard_fingerprint(buckets)
        if chaos.poison_cycle is not None and any(
            cycle == chaos.poison_cycle for cycle, _lanes in buckets
        ):
            registry.counter("chaos.poison_hits").inc()
            raise ChaosFault(
                f"permanently poisoned shard (cycle {chaos.poison_cycle})"
            )
        if chaos.fires("kill", fingerprint, attempt, chaos.kill_rate):
            registry.counter("chaos.kills").inc()
            if self.in_worker:
                os._exit(chaos.kill_exit_code)
            raise ChaosFault("chaos kill (in-process)")
        if chaos.fires("hang", fingerprint, attempt, chaos.hang_rate):
            registry.counter("chaos.hangs").inc()
            if self.in_worker:
                time.sleep(chaos.hang_seconds)
            else:
                raise ChaosFault("chaos hang (in-process)")
        if chaos.fires("delay", fingerprint, attempt, chaos.delay_rate):
            registry.counter("chaos.delays").inc()
            time.sleep(chaos.delay_seconds)
        payload = self.inner.run_shard(
            buckets, gates=gates, groups=groups, attempt=attempt
        )
        if chaos.fires("malform", fingerprint, attempt, chaos.malform_rate):
            registry.counter("chaos.malformed").inc()
            return {"ff": "<<chaos: torn payload>>", "chaos": True}
        return payload


class ChaosCampaignStore(CampaignStore):
    """Store whose Nth write of a family may be torn mid-document.

    A torn write bypasses the durable tmp+fsync+replace path and leaves
    *half* the serialized JSON at the final location — the on-disk state a
    hard crash could produce on a store without atomic writes.  The next
    ``_read`` must quarantine the damaged file (``*.corrupt`` +
    ``store.corrupt_files``) and recompute, never crash or serve garbage.
    """

    def __init__(self, root: Path, chaos: ChaosSpec) -> None:
        super().__init__(root)
        self.chaos = chaos
        self._write_ordinals: Dict[str, int] = {}

    def _write(self, spec: CampaignSpec, doc: Dict) -> None:
        path = self.path_for(spec)
        ordinal = self._write_ordinals.get(path.name, 0) + 1
        self._write_ordinals[path.name] = ordinal
        if self.chaos.fires("torn", path.name, ordinal, self.chaos.torn_write_rate):
            get_telemetry().registry.counter("chaos.torn_writes").inc()
            self.root.mkdir(parents=True, exist_ok=True)
            text = json.dumps(doc)
            path.write_text(text[: len(text) // 2])
            return
        super()._write(spec, doc)


# ------------------------------------------------------------------ trials

#: One flavor per trial, cycling: worker kills + malformed payloads +
#: delays (pool rebuild/retry paths), hangs under a shard deadline
#: (timeout watchdog path), and torn store writes (quarantine path).
TRIAL_FLAVORS = ("workers", "timeouts", "torn")


@dataclass
class ChaosTrialReport:
    """Outcome of one chaos trial (all counts from the trial's registry)."""

    trial: int
    flavor: str
    seed: int
    matched: bool
    retries: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    corrupt_files: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0


def _mini_spec(seed: int) -> CampaignSpec:
    """A paper-protocol campaign small enough to run many times per trial."""
    return CampaignSpec(
        circuit="xgmac_tiny",
        n_frames=4,
        min_len=2,
        max_len=3,
        gap=12,
        workload_seed=7,
        n_injections=8,
        seed=seed,
        schedule="stream",
    )


def _result_key(result) -> Tuple:
    return tuple(
        sorted(
            (name, rec.n_injections, rec.n_failures, rec.latency_sum)
            for name, rec in result.results.items()
        )
    ) + (result.n_forward_runs, result.total_lane_cycles)


def _counter_value(registry, name: str) -> int:
    counter = registry.counter(name)
    return int(getattr(counter, "value", 0))


def run_chaos_trials(
    n_trials: int = 3,
    jobs: int = 2,
    seed_base: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[ChaosTrialReport]:
    """Run *n_trials* seeded chaos trials; raise on the first divergence.

    Each trial runs a fault-free serial baseline, then the same campaign
    under one chaos flavor, and requires the recovered result to be
    bit-identical.  Trials run inside an isolated
    :class:`~repro.obs.Telemetry`; their metrics (including the
    ``robustness.*`` and ``chaos.*`` counters) are absorbed into the
    ambient registry afterwards so ``--metrics-out`` records the whole
    suite's fault accounting.
    """
    ambient = get_telemetry().registry
    reports: List[ChaosTrialReport] = []
    for trial in range(n_trials):
        flavor = TRIAL_FLAVORS[trial % len(TRIAL_FLAVORS)]
        trial_seed = seed_base * 1000 + trial
        spec = _mini_spec(seed=5 + trial_seed)
        start = time.perf_counter()
        with use_telemetry(Telemetry()) as telemetry:
            # The baseline runs serially but over the *same* shard
            # partition as the chaotic jobs-wide run: every engine below
            # cuts jobs * SHARDS_PER_JOB cycle ranges, so even the
            # execution-detail counters (forward runs, lane-cycles) must
            # match bit-for-bit.
            baseline = CampaignEngine(
                spec, jobs=1, shards_per_job=jobs * SHARDS_PER_JOB
            ).run()
            expected = _result_key(baseline)
            if flavor == "workers":
                chaos = ChaosSpec(
                    seed=trial_seed,
                    kill_rate=0.5,
                    malform_rate=0.4,
                    delay_rate=0.5,
                    delay_seconds=0.002,
                )
                retry = RetryPolicy(
                    max_attempts=4,
                    max_pool_rebuilds=200,
                    backoff_base=0.01,
                    backoff_max=0.05,
                    poll_interval=0.005,
                )
                engine = CampaignEngine(
                    spec,
                    jobs=jobs,
                    shards_per_job=SHARDS_PER_JOB,
                    chaos=chaos,
                    retry=retry,
                )
                result = engine.run()
            elif flavor == "timeouts":
                chaos = ChaosSpec(
                    seed=trial_seed, hang_rate=0.4, hang_seconds=30.0
                )
                retry = RetryPolicy(
                    max_attempts=4,
                    shard_timeout=1.0,
                    max_pool_rebuilds=200,
                    backoff_base=0.01,
                    backoff_max=0.05,
                    poll_interval=0.005,
                )
                engine = CampaignEngine(
                    spec,
                    jobs=jobs,
                    shards_per_job=SHARDS_PER_JOB,
                    chaos=chaos,
                    retry=retry,
                )
                result = engine.run()
            else:  # torn store writes
                import tempfile

                chaos = ChaosSpec(seed=trial_seed, torn_write_rate=1.0)
                with tempfile.TemporaryDirectory() as tmp:
                    root = Path(tmp) / "campaigns"
                    # Per-shard checkpoints (interval 0) force several
                    # writes; the first is torn, so the run itself must
                    # quarantine its own damaged checkpoint and carry on.
                    engine = CampaignEngine(
                        spec,
                        jobs=1,
                        shards_per_job=jobs * SHARDS_PER_JOB,
                        store=ChaosCampaignStore(root, chaos),
                        checkpoint_interval=0.0,
                    )
                    result = engine.run()
                    # A clean store over the same directory must serve the
                    # recovered snapshot (or recompute) — never crash on
                    # the leftover damage.
                    rerun = CampaignEngine(
                        spec,
                        jobs=1,
                        shards_per_job=jobs * SHARDS_PER_JOB,
                        store=CampaignStore(root),
                    ).run()
                    if _result_key(rerun) != expected:
                        raise ChaosTrialError(
                            f"trial {trial} ({flavor}): post-damage rerun "
                            f"diverged from the fault-free baseline"
                        )
            matched = _result_key(result) == expected
            registry = telemetry.registry
            report = ChaosTrialReport(
                trial=trial,
                flavor=flavor,
                seed=trial_seed,
                matched=matched,
                retries=engine.last_report.retries,
                pool_rebuilds=engine.last_report.pool_rebuilds,
                quarantined=len(engine.last_report.quarantined_shards),
                corrupt_files=_counter_value(registry, "store.corrupt_files"),
                faults={
                    kind: _counter_value(registry, f"chaos.{kind}")
                    for kind in (
                        "kills",
                        "hangs",
                        "delays",
                        "malformed",
                        "torn_writes",
                        "poison_hits",
                    )
                },
                wall_seconds=time.perf_counter() - start,
            )
            snapshot = registry.snapshot()
        ambient.absorb(snapshot)
        if not report.matched:
            raise ChaosTrialError(
                f"trial {trial} ({flavor}, seed {trial_seed}): chaotic result "
                f"diverged from the fault-free baseline "
                f"(retries={report.retries}, rebuilds={report.pool_rebuilds}, "
                f"quarantined={report.quarantined})"
            )
        if engine.last_report.quarantined_shards:
            raise ChaosTrialError(
                f"trial {trial} ({flavor}): recoverable faults must not "
                f"quarantine shards, got {engine.last_report.quarantined_shards}"
            )
        reports.append(report)
        if progress is not None:
            progress(trial + 1, n_trials)
    return reports
