"""Chaos-harness tests: the engine recovers bit-identically from faults.

Every test here follows the same property the chaos harness asserts: a
campaign executed under injected faults (worker kills, hangs, malformed
payloads, poisoned shards, torn store writes) must either

* recover to a result **bit-identical** to the fault-free run, with the
  recovery visible in ``robustness.*`` telemetry and the engine report; or
* (for permanently poisoned shards) *complete* with an explicit quarantine
  record and a resumable partial checkpoint — never raise, never cache a
  short-count result as a finished snapshot.
"""

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    CampaignStore,
    RetryPolicy,
    build_context,
    stream_buckets,
)
from repro.campaigns.executor import SHARDS_PER_JOB
from repro.obs import Telemetry, use_telemetry
from repro.verify.chaos import (
    ChaosCampaignStore,
    ChaosFault,
    ChaosShardRunner,
    ChaosSpec,
    run_chaos_trials,
    shard_fingerprint,
)

TINY = dict(
    circuit="xgmac_tiny",
    n_frames=4,
    min_len=2,
    max_len=3,
    gap=12,
    workload_seed=7,
)


def tiny_spec(**overrides) -> CampaignSpec:
    params = dict(TINY, n_injections=8, seed=5, schedule="stream")
    params.update(overrides)
    return CampaignSpec(**params)


def result_key(result):
    """Per-flip-flop counters: the bit-exactness contract (see
    tests/test_campaigns.py for why engine-cost metrics are excluded)."""
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


#: Retry knobs that keep chaotic test runs fast: no real backoff sleeps,
#: tight supervisor polling, effectively unlimited pool rebuilds.
def fast_retry(**overrides) -> RetryPolicy:
    params = dict(
        max_attempts=4,
        max_pool_rebuilds=200,
        backoff_base=0.0,
        backoff_max=0.0,
        poll_interval=0.005,
    )
    params.update(overrides)
    return RetryPolicy(**params)


def counter(telemetry, name):
    return telemetry.registry.counter(name).value


# ------------------------------------------------------------- chaos spec


def test_chaos_spec_fires_is_deterministic_and_bounded():
    spec = ChaosSpec(seed=3, kill_rate=0.5)
    sites = [f"fp{i:02d}" for i in range(64)]
    first = [spec.fires("kill", fp, 1, 0.5) for fp in sites]
    second = [spec.fires("kill", fp, 1, 0.5) for fp in sites]
    assert first == second, "fault decisions must be pure"
    assert any(first) and not all(first), "rate 0.5 should split the sites"
    # Rate 0 never fires; attempts past max_faults_per_site never fire, so
    # every retried shard eventually runs clean and the campaign terminates.
    assert not any(spec.fires("kill", fp, 1, 0.0) for fp in sites)
    assert not any(spec.fires("kill", fp, 2, 1.0) for fp in sites)
    assert ChaosSpec.from_dict(spec.to_dict()) == spec


def test_shard_fingerprint_tracks_content():
    a = [(3, ["ff_a", "ff_b"]), (7, ["ff_c"])]
    b = [(3, ["ff_a", "ff_b"]), (7, ["ff_d"])]
    assert shard_fingerprint(a) == shard_fingerprint(a)
    assert shard_fingerprint(a) != shard_fingerprint(b)


# --------------------------------------------------- recoverable failures


def test_worker_kills_recover_bit_identically():
    """Every shard's first dispatch dies via os._exit; retries recover."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    chaos = ChaosSpec(seed=11, kill_rate=1.0)
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(spec, jobs=2, chaos=chaos, retry=fast_retry())
        result = engine.run()
    assert result_key(result) == result_key(baseline)
    report = engine.last_report
    assert not report.quarantined_shards
    assert report.retries >= 1
    assert report.pool_rebuilds >= 1
    assert counter(telemetry, "robustness.worker_deaths") >= 1
    assert counter(telemetry, "robustness.pool_rebuilds") == report.pool_rebuilds


def test_hung_shard_hits_deadline_watchdog():
    """A hang far longer than the campaign trips shard_timeout, not a wedge."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    chaos = ChaosSpec(seed=13, hang_rate=1.0, hang_seconds=60.0)
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec,
            jobs=2,
            shards_per_job=1,
            chaos=chaos,
            retry=fast_retry(shard_timeout=0.75),
        )
        result = engine.run()
    assert result_key(result) == result_key(baseline)
    assert not engine.last_report.quarantined_shards
    assert engine.last_report.retries >= 1
    assert counter(telemetry, "robustness.shard_timeouts") >= 1


def test_malformed_payload_retried_in_serial_path():
    """A torn payload fails validation, counts an attempt, and is retried."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    chaos = ChaosSpec(seed=17, malform_rate=1.0)
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(spec, jobs=1, chaos=chaos, retry=fast_retry())
        result = engine.run()
    assert result_key(result) == result_key(baseline)
    assert engine.last_report.retries >= 1
    assert counter(telemetry, "robustness.malformed_payloads") >= 1


def test_degraded_pool_finishes_serially():
    """With zero rebuilds tolerated, the first death degrades to serial —
    and the serial fallback still retries through the in-process faults."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    chaos = ChaosSpec(seed=19, kill_rate=1.0)
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec, jobs=2, chaos=chaos, retry=fast_retry(max_pool_rebuilds=0)
        )
        result = engine.run()
    assert result_key(result) == result_key(baseline)
    assert engine.last_report.degraded_serial
    assert not engine.last_report.quarantined_shards
    assert counter(telemetry, "robustness.serial_fallbacks") == 1


def test_maxtasksperchild_recycling_is_not_a_death():
    """Clean worker recycling (exit code 0) must not trigger the dead-worker
    watchdog: zero retries, zero rebuilds, bit-identical result."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec, jobs=2, retry=fast_retry(maxtasksperchild=1)
        )
        result = engine.run()
    assert result_key(result) == result_key(baseline)
    assert engine.last_report.retries == 0
    assert engine.last_report.pool_rebuilds == 0
    assert counter(telemetry, "robustness.worker_deaths") == 0


def test_sequential_policy_recovers_from_kills():
    """The sequential-Wilson driver runs shards through the same supervisor;
    at target_margin=0 it must reproduce the flat counters despite kills."""
    flat = CampaignEngine(tiny_spec(), jobs=1).run()
    spec = tiny_spec(policy="sequential", target_margin=0.0)
    chaos = ChaosSpec(seed=23, kill_rate=0.6)
    engine = CampaignEngine(spec, jobs=2, chaos=chaos, retry=fast_retry())
    result = engine.run()
    assert result_key(result) == result_key(flat)
    assert not engine.last_report.quarantined_shards


# ------------------------------------------------------ poison quarantine


def poison_cycle_for(spec):
    """An injection time slot that is guaranteed to land in some shard."""
    context = build_context(spec)
    buckets = stream_buckets(
        spec, context.window_cycles(), context.ff_names(spec), 0, spec.n_injections
    )
    return buckets[0].cycle


def test_poisoned_shard_quarantines_and_resumes(tmp_path):
    """A permanently failing shard must not sink the campaign: it finishes
    quarantined, persists a *partial* (never a snapshot), and a later clean
    run resumes exactly the missing work.  Four cycle ranges, so that the
    unpoisoned ones finish and are resumed."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    chaos = ChaosSpec(seed=29, poison_cycle=poison_cycle_for(spec))
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec,
            jobs=1,
            shards_per_job=SHARDS_PER_JOB,
            cache_dir=tmp_path,
            chaos=chaos,
            retry=fast_retry(max_attempts=2),
        )
        partial_result = engine.run()
    report = engine.last_report
    assert report.quarantined_shards, "the poisoned shard must be reported"
    assert all(q["attempts"] == 2 for q in report.quarantined_shards)
    assert counter(telemetry, "robustness.quarantined_shards") >= 1
    assert counter(telemetry, "robustness.incomplete_campaigns") == 1
    assert counter(telemetry, "chaos.poison_hits") >= 2

    done = sum(r.n_injections for r in partial_result.results.values())
    full = sum(r.n_injections for r in baseline.results.values())
    assert done < full, "quarantined work must be missing, not faked"

    # Persisted as a resumable partial, never as a finished snapshot.
    store = CampaignStore(tmp_path / "campaigns")
    assert store.load_exact(spec) is None
    resumed = CampaignEngine(spec, jobs=1, cache_dir=tmp_path)
    result = resumed.run()
    assert result_key(result) == result_key(baseline)
    assert resumed.last_report.resumed_buckets > 0
    assert not resumed.last_report.quarantined_shards


def test_sequential_poison_quarantines_and_terminates(tmp_path):
    """The policy driver must abandon a poisoned shard's draws (advancing
    the consumed cursor) instead of re-allocating them forever."""
    spec = tiny_spec(policy="sequential", target_margin=0.0)
    chaos = ChaosSpec(seed=31, poison_cycle=poison_cycle_for(tiny_spec()))
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec,
            jobs=1,
            cache_dir=tmp_path,
            chaos=chaos,
            retry=fast_retry(max_attempts=2),
        )
        result = engine.run()
    assert engine.last_report.quarantined_shards
    assert engine.last_policy_meta["quarantined_shards"] >= 1
    assert counter(telemetry, "robustness.abandoned_draws") > 0
    assert counter(telemetry, "robustness.incomplete_campaigns") == 1
    assert result.results, "the surviving shards still merge to a result"
    # Abandoned draws advance the consumed cursor, so the policy backfills
    # from later stream indices — coverage may still reach the nominal
    # budget, but never exceed it, and the quarantine stays on the record.
    assert all(
        r.n_injections <= spec.n_injections for r in result.results.values()
    )


def test_sequential_poison_abandons_every_gate_shard_of_the_task():
    """At jobs=1 a round is one task carrying all four gate shards: the
    poisoned task's quarantine abandons the draws of every one of them."""
    spec = tiny_spec(policy="sequential", target_margin=0.0)
    chaos = ChaosSpec(seed=31, poison_cycle=poison_cycle_for(tiny_spec()))
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec, jobs=1, chaos=chaos, retry=fast_retry(max_attempts=2)
        )
        engine.run()
    quarantined = engine.last_report.quarantined_shards
    assert quarantined
    assert all(q["gate_shards"] == 4 for q in quarantined)
    assert counter(telemetry, "robustness.abandoned_draws") == sum(
        q["n_lanes"] for q in quarantined
    )


# ----------------------------------------------------------- torn writes


def test_torn_store_write_quarantined_and_recomputed(tmp_path):
    """A torn checkpoint write leaves half a JSON document; the store must
    quarantine it (``*.corrupt``) and the campaign recompute cleanly."""
    spec = tiny_spec()
    baseline = CampaignEngine(spec, jobs=1).run()
    root = tmp_path / "campaigns"
    chaos = ChaosSpec(seed=37, torn_write_rate=1.0)
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec,
            jobs=1,
            store=ChaosCampaignStore(root, chaos),
            checkpoint_interval=0.0,
        )
        result = engine.run()
        assert counter(telemetry, "chaos.torn_writes") >= 1
        rerun = CampaignEngine(spec, jobs=1, store=CampaignStore(root)).run()
        assert counter(telemetry, "store.corrupt_files") >= 1
    assert result_key(result) == result_key(baseline)
    assert result_key(rerun) == result_key(baseline)
    assert list(root.glob("*.corrupt")), "damaged bytes kept for postmortem"


# ---------------------------------------------------------- runner seams


def test_chaos_shard_runner_poison_raises_chaosfault():
    class Inner:
        spec = None

        def run_shard(
            self, buckets, gates=None, groups=None, attempt=1
        ):  # pragma: no cover
            raise AssertionError("poisoned shard must never execute")

    runner = ChaosShardRunner(Inner(), ChaosSpec(poison_cycle=42), in_worker=False)
    with pytest.raises(ChaosFault):
        runner.run_shard([(42, ["ff_a"])])


def test_chaos_shard_runner_kill_in_process_is_an_exception():
    class Inner:
        spec = None

        def run_shard(self, buckets, gates=None, groups=None, attempt=1):
            return {"ff": {}}

    chaos = ChaosSpec(seed=0, kill_rate=1.0)
    runner = ChaosShardRunner(Inner(), chaos, in_worker=False)
    with pytest.raises(ChaosFault):
        runner.run_shard([(1, ["ff_a"])], attempt=1)
    # Past max_faults_per_site the same site runs clean.
    assert runner.run_shard([(1, ["ff_a"])], attempt=2) == {"ff": {}}


# ------------------------------------------------------------ trial suite


def test_run_chaos_trials_smoke():
    """One full trial of each flavor — the same property CI enforces."""
    reports = run_chaos_trials(n_trials=3, jobs=2, seed_base=7)
    assert [r.flavor for r in reports] == ["workers", "timeouts", "torn"]
    assert all(r.matched for r in reports)
    assert reports[0].retries >= 1, "the workers flavor must exercise retries"
    assert reports[2].corrupt_files >= 1, "the torn flavor must damage the store"
