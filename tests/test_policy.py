"""Sampling-policy tests: allocation, gating, store namespacing, and the
fixed-seed equivalence contract.

The load-bearing guarantees:

* ``policy="sequential"`` with ``target_margin=0.0`` never retires anything
  and reproduces the flat campaign's per-flip-flop counters **bit for
  bit** — on every circuit in the library (draws are prefix-stable per
  flip-flop, so rounds and sharding cannot change which cycles are
  injected);
* a real target margin stops early: fewer injections than flat at the same
  nominal budget, every retired flip-flop's realized Wilson half-width at
  or under the target;
* allocation never schedules a draw-stream index twice, even when in-shard
  gating skips scheduled draws (``consumed`` bookkeeping);
* policy results live in the store under a policy-signature namespace and
  never collide with the flat snapshots of the same campaign family.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    CampaignStore,
    FlatPolicy,
    SequentialWilsonPolicy,
    ShardGate,
    make_policy,
    policy_signature,
)
from repro.campaigns.policy import MAX_BUDGET_FACTOR, MIN_INJECTIONS, interval_margin
from repro.data import DATASET_PRESETS, circuit_preset
from repro.circuits.library import LIBRARY_CIRCUITS

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
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


# ------------------------------------------------------------- allocation


def test_flat_policy_allocates_missing_draws_from_consumed():
    policy = FlatPolicy(nominal=10)
    tallies = {"a": [0, 0, 0], "b": [4, 1, 6], "c": [10, 3, 10]}
    allocation = policy.allocate(tallies, window_len=100)
    # 'b' executed 4 but consumed 6 stream indices: the next draws start at
    # 6 so no index is ever scheduled twice.
    assert allocation == {"a": (0, 10), "b": (6, 12)}
    assert policy.retired(10, 3)
    assert not policy.retired(9, 0)


def test_sequential_policy_retires_on_margin():
    policy = SequentialWilsonPolicy(nominal=100, target_margin=0.075)
    # Below the minimum sample nothing retires, however tight the tally.
    assert not policy.retired(5, 0)
    # A clean 170/0 run is far inside the margin.
    assert policy.retired(170, 0)
    # A 50/50 split at n=170 sits just under 0.075.
    assert policy.retired(170, 85) == (interval_margin(170, 85) <= 0.075)
    # Margin 0 disables stopping entirely (equivalence mode).
    never = SequentialWilsonPolicy(nominal=100, target_margin=0.0)
    assert not never.retired(10_000, 0)


@pytest.mark.parametrize("nominal, target", [(170, 0.075), (30, 0.2), (8, 0.0)])
def test_memoized_retired_equals_the_stopping_rule(nominal, target):
    """``retired`` is memoized per (n, k): for every tally up to the
    reallocation cap it gives the Wilson rule's answer, on first asks in
    shuffled order and on repeats from the memo."""
    import random

    policy = SequentialWilsonPolicy(nominal=nominal, target_margin=target)
    min_n = min(MIN_INJECTIONS, nominal)
    tallies = [
        (n, k) for n in range(MAX_BUDGET_FACTOR * nominal + 1) for k in range(n + 1)
    ]
    random.Random(nominal).shuffle(tallies)
    for _repeat in range(2):
        for n, k in tallies:
            rule = n >= min_n and target > 0 and interval_margin(n, k) <= target
            assert policy.retired(n, k) == rule, (n, k)


def test_sequential_allocation_respects_budget_and_caps():
    policy = SequentialWilsonPolicy(nominal=20, target_margin=0.075)
    window = 1000
    # Round 1: everyone below nominal gets a round chunk (max(8, 20 // 4)).
    tallies = {name: [0, 0, 0] for name in ("a", "b", "c")}
    allocation = policy.allocate(tallies, window)
    assert allocation == {"a": (0, 8), "b": (0, 8), "c": (0, 8)}

    # A retired flip-flop (tight interval) gets nothing more; an open one
    # keeps drawing toward the nominal budget.
    tallies = {"a": [2000, 0, 2000], "b": [8, 4, 8]}
    allocation = policy.allocate(tallies, window)
    assert "a" not in allocation
    assert allocation["b"] == (8, 16)


def test_sequential_reallocates_freed_budget_to_widest_interval():
    policy = SequentialWilsonPolicy(nominal=40, target_margin=0.14)
    window = 1000
    # 'a' retired at the minimum 24 draws (margin(24,0) ~ 0.069 <= 0.14),
    # freeing 16 of its nominal 40.  'b' (margin ~ 0.148) and 'c'
    # (~ 0.145) are both at nominal and still wide: the pool goes
    # widest-first, so 'b' gets a full round chunk (max(8, 40 // 4)) and
    # 'c' only what remains of the freed budget.
    tallies = {"a": [24, 0, 24], "b": [40, 20, 40], "c": [40, 16, 40]}
    assert policy.retired(24, 0)
    assert interval_margin(40, 20) > interval_margin(40, 16) > 0.14
    allocation = policy.allocate(tallies, window)
    assert "a" not in allocation
    assert allocation["b"] == (40, 50)  # round chunk
    assert allocation["c"] == (40, 46)  # pool = 120 - 104 - 10 = 6 left
    # The freed budget is conserved: grants never exceed the family pool.
    granted = sum(stop - start for start, stop in allocation.values())
    assert granted == 40 * len(tallies) - sum(rec[0] for rec in tallies.values())


def test_sequential_allocation_never_exceeds_cap_or_window():
    policy = SequentialWilsonPolicy(nominal=100, target_margin=0.075)
    # Draws are sampled without replacement: a 20-cycle window caps every
    # stream at 20 indices, below the round chunk (max(8, 100 // 4) = 25).
    tallies = {"a": [40, 0, 40], "b": [16, 8, 16], "c": [0, 0, 0]}
    assert policy.retired(40, 0)  # margin(40, 0) ~ 0.044
    allocation = policy.allocate(tallies, window_len=20)
    assert "a" not in allocation  # retired
    assert allocation["b"] == (16, 20)  # four stream indices left
    assert allocation["c"] == (0, 20)  # whole window, not the round chunk
    # And in a huge window the MAX_BUDGET_FACTOR ceiling bites instead.
    tallies = {"a": [400, 200, 400], "b": [0, 0, 0]}
    allocation = policy.allocate(tallies, window_len=10_000)
    assert "a" not in allocation  # at MAX_BUDGET_FACTOR * nominal already
    assert allocation["b"] == (0, 25)
    assert MAX_BUDGET_FACTOR == 4


def test_allocation_ranges_never_overlap_consumed_indices():
    """Whatever the tallies, granted ranges start at `consumed`."""
    policy = SequentialWilsonPolicy(nominal=16, target_margin=0.2)
    tallies = {
        "a": [4, 1, 9],  # 5 draws were skipped in-shard
        "b": [8, 8, 8],
        "c": [0, 0, 0],
    }
    for name, (start, _stop) in policy.allocate(tallies, 500).items():
        assert start == tallies[name][2]


def test_shard_gate_skips_retired_and_counts():
    policy = SequentialWilsonPolicy(nominal=10, target_margin=0.3)
    gate = ShardGate(policy, {"a": [0, 0, 0], "b": [5000, 0, 5000]})
    # 'b' is already pinned at 0: skipped immediately.
    assert not gate.admit("b")
    assert gate.admit("a")
    # Verdicts tighten the shard-local view until 'a' retires too.
    for _ in range(40):
        gate.record("a", failed=False)
    assert not gate.admit("a")
    assert gate.n_skipped() == 2
    assert gate.skipped == {"a": 1, "b": 1}


# ------------------------------------------------------- spec & signatures


def test_spec_validates_policy_fields():
    with pytest.raises(ValueError, match="unknown policy"):
        tiny_spec(policy="bogus")
    with pytest.raises(ValueError, match="target_margin"):
        tiny_spec(target_margin=1.5)
    with pytest.raises(ValueError, match="requires the prefix-stable"):
        tiny_spec(schedule="legacy", policy="sequential")


def test_policy_excluded_from_cache_identity():
    flat = tiny_spec()
    seq = tiny_spec(policy="sequential", target_margin=0.1)
    assert flat.cache_key() == seq.cache_key()
    assert flat.family_key() == seq.family_key()
    # ... but the policy signature separates their stored results.
    assert policy_signature(flat) != policy_signature(seq)
    assert policy_signature(seq) != policy_signature(
        tiny_spec(policy="sequential", target_margin=0.2)
    )
    assert isinstance(make_policy(flat), FlatPolicy)
    assert isinstance(make_policy(seq), SequentialWilsonPolicy)


# ------------------------------------------------------------ store layer


def test_policy_snapshots_are_namespaced(tmp_path):
    spec = tiny_spec(policy="sequential", target_margin=0.2)
    store = CampaignStore(tmp_path)
    signature = policy_signature(spec)
    result = CampaignEngine(tiny_spec()).run()  # any result payload will do
    store.save_policy_snapshot(spec, signature, result, {"rounds": 3}, gate_shards=4)

    loaded = store.load_policy_snapshot(spec, signature, gate_shards=4)
    assert loaded is not None
    restored, meta = loaded
    assert result_key(restored) == result_key(result)
    assert meta == {"rounds": 3}
    # Numeric snapshot inventory is untouched by policy snapshots.
    assert store.stored_budgets(spec) == []
    assert store.load_exact(spec) is None
    assert store.best_snapshot(spec) is None
    # A different signature is a different namespace.
    other = policy_signature(tiny_spec(policy="sequential", target_margin=0.05))
    assert store.load_policy_snapshot(spec, other, gate_shards=4) is None


def test_policy_partial_round_trip_and_validation(tmp_path):
    spec = tiny_spec(policy="sequential")
    store = CampaignStore(tmp_path)
    signature = policy_signature(spec)
    tallies = {"a": [4, 1, 6], "b": [0, 0, 0]}
    accum = {"ff": {"a": [4, 1, 12]}, "n_forward_runs": 2}
    store.save_policy_partial(spec, signature, tallies, accum, gate_shards=4)
    loaded = store.load_policy_partial(spec, signature, gate_shards=4)
    assert loaded is not None
    assert loaded[0] == tallies
    assert loaded[1]["n_forward_runs"] == 2
    # Wrong signature: no checkpoint.
    assert store.load_policy_partial(spec, "deadbeef", gate_shards=4) is None
    # Damaged tallies (violating k <= n <= consumed) are rejected.
    store.save_policy_partial(spec, signature, {"a": [4, 9, 6]}, accum, gate_shards=4)
    assert store.load_policy_partial(spec, signature, gate_shards=4) is None
    store.save_policy_partial(spec, signature, {"a": [7, 1, 6]}, accum, gate_shards=4)
    assert store.load_policy_partial(spec, signature, gate_shards=4) is None
    # A finished snapshot clears its own checkpoint.
    store.save_policy_partial(spec, signature, tallies, accum, gate_shards=4)
    store.save_policy_snapshot(
        spec, signature, CampaignEngine(tiny_spec()).run(), {}, gate_shards=4
    )
    assert store.load_policy_partial(spec, signature, gate_shards=4) is None


def test_policy_records_carry_their_gate_layout(tmp_path):
    """Snapshots and round checkpoints record the gate layout they were
    computed under; a lookup for another layout misses."""
    spec = tiny_spec(policy="sequential")
    store = CampaignStore(tmp_path)
    signature = policy_signature(spec)
    tallies = {"a": [4, 1, 6]}
    accum = {"ff": {"a": [4, 1, 12]}, "n_forward_runs": 2}
    store.save_policy_partial(spec, signature, tallies, accum, gate_shards=8)
    assert store.load_policy_partial(spec, signature, gate_shards=4) is None
    assert store.load_policy_partial(spec, signature, gate_shards=8)[0] == tallies
    result = CampaignEngine(tiny_spec()).run()
    # A snapshot of another layout does not supersede the checkpoint.
    store.save_policy_snapshot(spec, signature, result, {}, gate_shards=4)
    assert store.load_policy_partial(spec, signature, gate_shards=8) is not None
    assert store.load_policy_snapshot(spec, signature, gate_shards=8) is None
    assert store.load_policy_snapshot(spec, signature, gate_shards=4) is not None
    store.save_policy_snapshot(spec, signature, result, {}, gate_shards=8)
    assert store.load_policy_partial(spec, signature, gate_shards=8) is None
    # Records from before layouts were recorded match no layout.
    doc = store._read(spec)
    del doc["snapshots"][f"policy:{signature}"]["gate_shards"]
    store._write(spec, doc)
    assert store.load_policy_snapshot(spec, signature, gate_shards=8) is None


# ------------------------------------------------- fixed-seed equivalence


@pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS)
def test_equivalence_mode_matches_flat_on_library(circuit):
    """target_margin=0 sequential == flat, bit for bit, on every circuit."""
    dataset_spec = circuit_preset(circuit, "tiny")
    flat_spec = CampaignSpec.from_dataset_spec(
        dataset_spec, schedule="stream", n_injections=8
    )
    seq_spec = CampaignSpec.from_dataset_spec(
        dataset_spec,
        schedule="stream",
        n_injections=8,
        policy="sequential",
        target_margin=0.0,
    )
    assert result_key(CampaignEngine(flat_spec).run()) == result_key(CampaignEngine(seq_spec).run())


def test_equivalence_mode_matches_flat_on_mac_parallel():
    """The equivalence holds through the multiprocessing executor too."""
    flat = CampaignEngine(tiny_spec(n_injections=10)).run()
    seq = CampaignEngine(
        tiny_spec(n_injections=10, policy="sequential", target_margin=0.0), jobs=2
    ).run()
    assert result_key(flat) == result_key(seq)


# ----------------------------------------------------------- engine driver


def test_sequential_stops_early_and_meets_margin():
    spec = tiny_spec(n_injections=60, target_margin=0.12, policy="sequential")
    engine = CampaignEngine(spec)
    result = engine.run()
    meta = engine.last_policy_meta
    policy = make_policy(spec)

    flat_total = 60 * len(result.results)
    total = sum(r.n_injections for r in result.results.values())
    assert total < flat_total
    assert meta["injections_saved"] == flat_total - total
    assert meta["rounds"] == engine.last_report.rounds > 1

    for record in result.results.values():
        # Everyone gets the minimum sample ...
        assert record.n_injections >= min(24, 60)
        # ... and whoever stopped short of the nominal budget did so
        # because the target margin was met.
        if record.n_injections < 60:
            assert (
                interval_margin(record.n_injections, record.n_failures) <= 0.12
            )


def test_sequential_is_deterministic():
    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    assert result_key(CampaignEngine(spec).run()) == result_key(
        CampaignEngine(spec).run()
    )


def test_sequential_engine_store_round_trip(tmp_path):
    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    first = CampaignEngine(spec, cache_dir=tmp_path)
    result = first.run()
    assert first.last_report.executed_forward_runs > 0

    second = CampaignEngine(spec, cache_dir=tmp_path)
    cached = second.run()
    assert second.last_report.cache_hit
    assert second.last_report.executed_forward_runs == 0
    assert result_key(cached) == result_key(result)
    assert second.last_policy_meta["rounds"] == first.last_policy_meta["rounds"]

    # The realized per-ff injection counts are stored: reload and check.
    store = CampaignStore(tmp_path / "campaigns")
    loaded, meta = store.load_policy_snapshot(
        spec, policy_signature(spec), gate_shards=4
    )
    assert result_key(loaded) == result_key(result)
    assert meta["total_injections"] == sum(
        r.n_injections for r in result.results.values()
    )

    # A flat run of the same family is unaffected by the policy snapshot.
    flat = CampaignEngine(tiny_spec(n_injections=40), cache_dir=tmp_path)
    flat_result = flat.run()
    assert not flat.last_report.cache_hit
    assert all(r.n_injections == 40 for r in flat_result.results.values())


def test_sequential_snapshot_of_another_gate_layout_is_a_miss(tmp_path):
    """Sequential counters depend on the gate layout (jobs ×
    shards_per_job): a snapshot computed under another layout is not
    served, and the recomputed counters equal a fresh run's."""
    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    fresh = CampaignEngine(spec).run()
    other = CampaignEngine(spec, cache_dir=tmp_path, shards_per_job=2)
    other_result = other.run()
    assert result_key(other_result) != result_key(fresh)  # layouts differ

    engine = CampaignEngine(spec, cache_dir=tmp_path)
    result = engine.run()
    assert not engine.last_report.cache_hit
    assert engine.last_report.executed_forward_runs > 0
    assert result_key(result) == result_key(fresh)
    # The recomputed snapshot now serves the default layout.
    again = CampaignEngine(spec, cache_dir=tmp_path)
    assert result_key(again.run()) == result_key(fresh)
    assert again.last_report.cache_hit


def test_sequential_round_is_one_sweep_per_task():
    """At jobs=1 a round's gate shards all ride one scheduler pass: when no
    request is deferred, every round costs exactly one forward run."""
    from repro.obs import Telemetry, use_telemetry

    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(spec)
        engine.run()
        counters = telemetry.registry.snapshot().to_payload()["counters"]
    report = engine.last_report
    assert counters.get("scheduler.deferred", 0) == 0
    assert counters["policy.shard_skips"] > 0  # the gates did retire draws
    assert report.rounds > 1
    assert report.n_shards == 4 * report.rounds
    assert report.executed_forward_runs == report.rounds


def test_sequential_seeds_from_flat_snapshot(tmp_path):
    small = tiny_spec(n_injections=10)
    CampaignEngine(small, cache_dir=tmp_path).run()

    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    engine = CampaignEngine(spec, cache_dir=tmp_path)
    result = engine.run()
    assert engine.last_report.base_injections == 10
    assert all(r.n_injections >= 10 for r in result.results.values())
    # Seeding only changes where the draw streams start, not the outcome
    # of a fresh run with identical rounds ... it may change round
    # boundaries, so compare against the invariants instead: totals stay
    # within the family budget.
    assert sum(r.n_injections for r in result.results.values()) <= 40 * len(
        result.results
    ) + 4 * 40  # reallocation headroom is bounded


def test_sequential_interrupt_resumes_from_policy_checkpoint(tmp_path):
    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")

    class Interrupted(Exception):
        pass

    # The policy checkpoint is written at round boundaries only (a
    # mid-round cursor would not be a draw-stream prefix — see
    # docs/robustness.md), so interrupt on the first shard of round 2:
    # round 1's checkpoint must be on disk by then.
    seen_round_end = False

    def bomb(done, total):
        nonlocal seen_round_end
        if seen_round_end:
            raise Interrupted
        if done == total:
            seen_round_end = True

    engine = CampaignEngine(
        spec, cache_dir=tmp_path, progress=bomb, progress_interval=0.0
    )
    with pytest.raises(Interrupted):
        engine.run()
    store = CampaignStore(tmp_path / "campaigns")
    checkpoint = store.load_policy_partial(
        spec, policy_signature(spec), gate_shards=4
    )
    assert checkpoint is not None
    tallies, _accum = checkpoint
    assert any(rec[0] > 0 for rec in tallies.values())
    for n, k, consumed in tallies.values():
        assert 0 <= k <= n <= consumed

    resumed = CampaignEngine(spec, cache_dir=tmp_path)
    result = resumed.run()
    assert not resumed.last_report.cache_hit
    # The resumed run still satisfies the policy contract.
    for record in result.results.values():
        if record.n_injections < 40:
            assert (
                interval_margin(record.n_injections, record.n_failures) <= 0.15
            )


def _tamper_count(ff, tallies):
    name = next(name for name, rec in tallies.items() if rec[0] > 0)
    ff[name][0] += 2


def _tamper_name(ff, tallies):
    ff["not_a_flip_flop"] = [0, 0, 0]


@pytest.mark.parametrize("tamper", [_tamper_count, _tamper_name])
def test_self_contradicting_policy_checkpoint_is_dropped(tmp_path, tamper):
    """A round checkpoint whose tallies disagree with its accumulator (each
    well-formed on its own) is dropped, and the rerun counts exactly what a
    run that was never interrupted counts."""
    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    clean = CampaignEngine(spec).run()

    class Interrupted(Exception):
        pass

    seen_round_end = False

    def bomb(done, total):
        nonlocal seen_round_end
        if seen_round_end:
            raise Interrupted
        if done == total:
            seen_round_end = True

    engine = CampaignEngine(
        spec, cache_dir=tmp_path, progress=bomb, progress_interval=0.0
    )
    with pytest.raises(Interrupted):
        engine.run()
    store = CampaignStore(tmp_path / "campaigns")
    signature = policy_signature(spec)
    assert store.load_policy_partial(spec, signature, gate_shards=4) is not None
    doc = store._read(spec)
    partial = doc["policy_partial"]
    tamper(partial["accum"]["ff"], partial["tallies"])
    store._write(spec, doc)
    assert store.load_policy_partial(spec, signature, gate_shards=4) is None

    rerun = CampaignEngine(spec, cache_dir=tmp_path).run()
    assert result_key(rerun) == result_key(clean)
    assert (rerun.n_forward_runs, rerun.total_lane_cycles) == (
        clean.n_forward_runs,
        clean.total_lane_cycles,
    )


def test_sequential_records_observability_metrics():
    from repro.obs import Telemetry, use_telemetry

    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    with use_telemetry(Telemetry()) as telemetry:
        CampaignEngine(spec).run()
        snapshot = telemetry.registry.snapshot().to_payload()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["hists"]
    assert counters["policy.rounds"] >= 1
    assert counters["policy.injections_saved"] > 0
    assert 0.0 < gauges["policy.realized_margin"]["max"] < 1.0
    assert histograms["policy.stopping_time"]["count"] == 277  # one per ff


def test_statistical_acceptance_at_equal_margin():
    """The adaptive-sampling acceptance gate, on the mini preset (60
    injections per flip-flop, ``jobs=2``, cold runs): asked to meet the
    flat run's realized worst-case Wilson margin, the sequential policy
    must get there with at least 1.2x fewer injections.  Flip-flops that
    hit the budget cap before the target may overshoot it by at most 2%."""
    min_savings, margin_tolerance = 1.2, 0.02

    def mini_spec(**overrides) -> CampaignSpec:
        return CampaignSpec.from_dataset_spec(
            DATASET_PRESETS["mini"], schedule="stream", n_injections=60, **overrides
        )

    flat = CampaignEngine(mini_spec(), jobs=2).run()
    flat_injections = sum(r.n_injections for r in flat.results.values())
    target = max(
        interval_margin(r.n_injections, r.n_failures) for r in flat.results.values()
    )

    engine = CampaignEngine(
        mini_spec(policy="sequential", target_margin=target), jobs=2
    )
    engine.run()
    meta = engine.last_policy_meta
    assert meta["realized_margin_max"] <= target * (1.0 + margin_tolerance)
    assert flat_injections / meta["total_injections"] >= min_savings


def test_sequential_rounds_emit_progress_events():
    """Each round reports its tasks through the same throttled progress path
    as a flat run: telemetry ``progress`` events (what ``--live`` renders)
    and callback calls, every round closing at ``done == total``."""
    from repro.obs import MemorySink, Telemetry, use_telemetry

    spec = tiny_spec(n_injections=40, target_margin=0.15, policy="sequential")
    calls = []
    telemetry = Telemetry()
    sink = telemetry.add_sink(MemorySink(events=("progress",)))
    with use_telemetry(telemetry):
        engine = CampaignEngine(
            spec,
            jobs=2,
            progress=lambda done, total: calls.append((done, total)),
            progress_interval=0.0,
        )
        engine.run()
    events = [(e["done"], e["total"]) for e in sink.records]
    assert events == calls

    rounds = []
    for done, total in events:
        if done == 1:
            rounds.append([])
        rounds[-1].append((done, total))
    assert len(rounds) == engine.last_report.rounds > 1
    for events_in_round in rounds:
        total = events_in_round[-1][1]
        assert events_in_round == [(i, total) for i in range(1, total + 1)]


#: SHA-256 of every flip-flop's sorted ``[name, n, k, latency_sum]`` after a
#: sequential campaign on ``xgmac_tiny`` (the tiny preset at 40 injections,
#: campaign seed 3).  In-shard gating skips draws in this run, so the
#: counters depend on the order in which each shard's gate sees admits and
#: verdicts: a change to the shard partition or to gate order fails here.
SEQUENTIAL_TINY_DIGEST = "2cffb0fd288846229a37535a340bdbe083be810cecf5b52473c557310b3b1e1e"


def test_sequential_counters_are_pinned():
    from repro.obs import Telemetry, use_telemetry

    spec = CampaignSpec.from_dataset_spec(
        replace(DATASET_PRESETS["tiny"], campaign_seed=3),
        schedule="stream",
        policy="sequential",
        n_injections=40,
    )
    with use_telemetry(Telemetry()) as telemetry:
        result = CampaignEngine(spec).run()
        counters = telemetry.registry.snapshot().to_payload()["counters"]
    assert counters["policy.shard_skips"] > 0
    rows = sorted(
        [name, r.n_injections, r.n_failures, r.latency_sum]
        for name, r in result.results.items()
    )
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == SEQUENTIAL_TINY_DIGEST
    # The scheduler's work, not just its verdicts: lanes simulated and the
    # lane width allocated for them (riders of merged lanes and requests
    # parked without a lane count in the lane-cycles, not in the width).
    assert (result.n_forward_runs, result.total_lane_cycles) == (5, 591_884)
    assert counters["scheduler.n_passes"] == 5
    assert counters["scheduler.width_cycles"] == 595_257
    assert counters["scheduler.merged"] == 797
