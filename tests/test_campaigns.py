"""Parallel campaign engine tests: schedules, sharding, store, resume.

The load-bearing guarantees:

* a sharded ``legacy``-schedule run merges to the counters of one
  scheduler run over the whole window, **bit for bit**, for every shard
  layout (pinned by ``test_legacy_counters_are_pinned``);
* ``stream``-schedule results are independent of the jobs count;
* the stream schedule is prefix-stable, so the store can top up a cached
  campaign by simulating only the injection delta;
* a cached re-run performs zero forward simulations, and an interrupted run
  resumes from its checkpoint.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    CampaignStore,
    build_context,
    cycle_range_shards,
    legacy_buckets,
    partition_shards,
    stream_buckets,
)
from repro.campaigns.executor import SHARDS_PER_JOB, _ShardRunner
from repro.campaigns.partition import (
    DrawStream,
    stream_buckets_ranged,
    stream_slot_order,
)
from repro.data import DATASET_PRESETS

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
    """The bit-exactness contract: per-flip-flop counters.

    Engine-cost metrics (``n_forward_runs``, ``total_lane_cycles``) are
    *execution-shape* metrics: they depend on how buckets fold into
    scheduler passes (and hence on sharding), so they are not compared.
    """
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


# ------------------------------------------------------------- scheduling


#: SHA-256 of every flip-flop's sorted ``[name, n, k, latency_sum]`` after a
#: flat ``legacy`` campaign on ``xgmac_tiny`` (the tiny preset at 40
#: injections, campaign seed 3).  A change to the legacy draw's RNG order
#: fails here.
LEGACY_TINY_DIGEST = "7d6e3d687f17c88a3b8ccc3e38a221e2894995a6025c46c0bcd1698e11d1bc58"


def legacy_tiny_spec() -> CampaignSpec:
    """The pinned flat campaign: the tiny preset at 40 injections, seed 3."""
    return CampaignSpec.from_dataset_spec(
        replace(DATASET_PRESETS["tiny"], campaign_seed=3),
        schedule="legacy",
        n_injections=40,
    )


def counter_digest(result) -> str:
    rows = sorted(
        [name, r.n_injections, r.n_failures, r.latency_sum]
        for name, r in result.results.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: Scheduler work of the pinned flat campaign per shard layout:
#: ``(n_forward_runs, total_lane_cycles, width_cycles, merged)``.  ``None``
#: is the default layout (one cycle range at jobs=1).  Each cycle-range
#: shard starts its retirement-check grid at its own first cycle, so
#: lane-cycles depend on the layout; riders count in them, so merging
#: leaves them as an unmerged run has them and lowers only the width.
#: Requests parked without a lane (structural verdicts) count in them as
#: well, and lower the width and the lanes left to merge.
LEGACY_TINY_WORK = {
    None: (1, 631_699, 173_894, 3_560),
    SHARDS_PER_JOB: (4, 631_110, 362_918, 3_242),
}


def _assert_legacy_tiny_work(shards_per_job):
    from repro.obs import Telemetry, use_telemetry

    spec = legacy_tiny_spec()
    with use_telemetry(Telemetry()) as telemetry:
        result = CampaignEngine(spec, shards_per_job=shards_per_job).run()
        counters = telemetry.registry.snapshot().to_payload()["counters"]
    assert counter_digest(result) == LEGACY_TINY_DIGEST
    # The scheduler's work, not just its verdicts: lanes simulated and the
    # lane width allocated for them.
    runs, lane_cycles, width_cycles, merged = LEGACY_TINY_WORK[shards_per_job]
    assert (result.n_forward_runs, result.total_lane_cycles) == (runs, lane_cycles)
    assert counters["scheduler.n_passes"] == runs
    assert counters["scheduler.width_cycles"] == width_cycles
    assert counters["scheduler.merged"] == merged


def test_legacy_counters_are_pinned():
    """Four cycle ranges, the layout the counters were first pinned in."""
    _assert_legacy_tiny_work(SHARDS_PER_JOB)


def test_default_flat_layout_counters_are_pinned():
    """One cycle range per worker: one sweep, the same verdicts."""
    _assert_legacy_tiny_work(None)


@pytest.mark.parametrize(
    "jobs, shards_per_job", [(1, 1), (1, 4), (2, 1), (2, 4), (1, None), (2, None)]
)
def test_flat_counters_do_not_depend_on_the_shard_layout(jobs, shards_per_job):
    """Every cycle-range layout merges to the pinned counters.  Left unset,
    ``shards_per_job`` cuts one range at jobs=1 and SHARDS_PER_JOB ranges
    per worker otherwise."""
    engine = CampaignEngine(legacy_tiny_spec(), jobs=jobs, shards_per_job=shards_per_job)
    result = engine.run()
    if shards_per_job is None:
        expected_shards = 1 if jobs == 1 else jobs * SHARDS_PER_JOB
    else:
        expected_shards = jobs * shards_per_job
    assert engine.last_report.n_shards == expected_shards
    assert counter_digest(result) == LEGACY_TINY_DIGEST


#: :func:`counter_digest` of the tiny ``legacy`` campaign at 8 injections,
#: seed 5, recorded from the serial reference runner (one scheduler run over
#: the whole window) before the engine became the only campaign runner.
LEGACY_SERIAL_DIGEST = "f6167b3fd259574e97946877d7af95e66dfb0c78f4cda5400714a147e249cf10"


def test_legacy_schedule_matches_serial_reference():
    """A sharded legacy run merges to the serial reference's counters."""
    spec = tiny_spec(schedule="legacy")
    engine = CampaignEngine(spec, jobs=2)
    parallel = engine.run()
    assert counter_digest(parallel) == LEGACY_SERIAL_DIGEST
    assert engine.last_report.executed_forward_runs == parallel.n_forward_runs


def test_legacy_rejects_more_time_slots_than_window():
    """The slot pool cannot exceed the active window; the engine says so
    instead of failing inside ``random.sample``."""
    spec = CampaignSpec(
        circuit="counter16",
        criterion="any_output",
        n_injections=4,
        schedule="legacy",
        n_time_slots=100000,
    )
    with pytest.raises(ValueError, match="exceeds the .* cycles of the active window"):
        CampaignEngine(spec).run()


def test_stream_parallel_matches_serial():
    spec = tiny_spec(n_injections=6)
    serial = CampaignEngine(spec, jobs=1).run()
    parallel = CampaignEngine(spec, jobs=3).run()
    assert result_key(serial) == result_key(parallel)


def test_draw_stream_is_prefix_stable():
    import random

    spec = tiny_spec()
    window = list(range(20, 140))
    stream = stream_slot_order(spec, window)
    short = DrawStream(stream, random.Random("ff:5:ff_x")).draws(0, 10)
    long = DrawStream(stream, random.Random("ff:5:ff_x")).draws(0, 40)
    assert long[:10] == short
    assert len(set(long)) == len(long)  # without replacement
    assert all(c in window for c in long)


def test_memoized_streams_replay_identical_buckets():
    """Policy rounds extend memoized draw streams; the buckets must equal a
    fresh redraw from draw 0 every round."""
    spec = tiny_spec()
    window = list(range(20, 140))
    ffs = [f"ff{i}" for i in range(9)]
    rounds = [
        {name: (0, 24) for name in ffs},
        {name: (24, 30 + 3 * i) for i, name in enumerate(ffs)},
        {ffs[0]: (54, 80), ffs[4]: (42, 43), ffs[8]: (10, 20)},
        {name: (60, 60 + i) for i, name in enumerate(ffs)},
    ]
    streams = {}
    for ranges in rounds:
        memoized = stream_buckets_ranged(spec, window, ranges, streams)
        assert memoized == stream_buckets_ranged(spec, window, ranges)
    assert set(streams) == set(ffs)


def test_draw_stream_density_matches_serial_pool():
    """Draws concentrate on ~1.5 n slots, like the serial scheduler's pool."""
    spec = tiny_spec(n_injections=20)
    window = list(range(0, 500))
    buckets = stream_buckets(spec, window, [f"ff{i}" for i in range(40)])
    assert len(buckets) <= 30  # ceil(1.5 * 20), not ~min(500, 40*20)


def test_stream_rejects_overdrawn_window():
    spec = tiny_spec(n_injections=50)
    with pytest.raises(ValueError, match="without replacement"):
        stream_buckets(spec, list(range(10)), ["ff0"])


def test_legacy_rejects_small_window():
    spec = tiny_spec(schedule="legacy", n_injections=50)
    with pytest.raises(ValueError, match="time slots"):
        legacy_buckets(spec, list(range(20)), ["ff0"])


def test_topup_bucket_draws_cover_exactly_the_delta():
    spec = tiny_spec(n_injections=12)
    window = list(range(30, 160))
    ffs = [f"ff{i}" for i in range(7)]
    full = stream_buckets(spec, window, ffs)
    head = stream_buckets(spec, window, ffs, stop=5)
    tail = stream_buckets(spec, window, ffs, start=5)

    def draws(buckets):
        return sorted(
            (cycle, name) for b in buckets for cycle, name in [(b.cycle, n) for n in b.lanes]
        )

    assert sorted(draws(head) + draws(tail)) == draws(full)
    assert sum(b.n_lanes for b in tail) == len(ffs) * 7


# --------------------------------------------------------------- sharding


def test_partition_shards_covers_all_buckets_once():
    spec = tiny_spec(n_injections=10)
    window = list(range(0, 200))
    buckets = stream_buckets(spec, window, [f"ff{i}" for i in range(25)])
    shards = partition_shards(buckets, 4)
    flattened = sorted(b.cycle for shard in shards for b in shard)
    assert flattened == sorted(b.cycle for b in buckets)
    # balanced: no shard dominates (LPT bound)
    loads = [sum(b.n_lanes for b in shard) for shard in shards]
    assert max(loads) <= 2 * min(loads)
    # deterministic
    assert shards == partition_shards(buckets, 4)
    # within-shard execution order is by cycle
    for shard in shards:
        assert [b.cycle for b in shard] == sorted(b.cycle for b in shard)


def test_cycle_range_shards_are_contiguous_and_balanced():
    spec = tiny_spec(n_injections=10)
    buckets = stream_buckets(spec, list(range(0, 200)), [f"ff{i}" for i in range(25)])
    shards = cycle_range_shards(buckets, 4)
    assert len(shards) == 4
    # Contiguous ranges that cover every bucket once, in cycle order.
    assert [b for shard in shards for b in shard] == sorted(buckets, key=lambda b: b.cycle)
    for before, after in zip(shards, shards[1:]):
        assert before[-1].cycle < after[0].cycle
    # Balanced: each shard closes at the first bucket that reaches its
    # share, so it overshoots by less than one bucket.
    total = sum(b.n_lanes for b in buckets)
    widest = max(b.n_lanes for b in buckets)
    for shard in shards:
        assert abs(sum(b.n_lanes for b in shard) - total / 4) < 2 * widest
    assert cycle_range_shards(buckets, 4) == shards
    single = stream_buckets(spec, list(range(50)), ["ff0"])
    assert cycle_range_shards(single, 100) == [[b] for b in single]
    assert cycle_range_shards(buckets, 1) == [sorted(buckets, key=lambda b: b.cycle)]
    with pytest.raises(ValueError):
        cycle_range_shards(buckets, 0)


def test_partition_shards_degenerate_cases():
    spec = tiny_spec(n_injections=4)
    buckets = stream_buckets(spec, list(range(50)), ["ff0"])
    assert partition_shards(buckets, 100) == [[b] for b in buckets]
    with pytest.raises(ValueError):
        partition_shards(buckets, 0)


# ------------------------------------------------------------------ store


def test_store_rerun_is_zero_simulations(tmp_path):
    spec = tiny_spec(n_injections=6)
    first = CampaignEngine(spec, cache_dir=tmp_path)
    result = first.run()
    assert first.last_report.executed_forward_runs > 0

    second = CampaignEngine(spec, cache_dir=tmp_path)
    cached = second.run()
    assert second.last_report.cache_hit
    assert second.last_report.executed_forward_runs == 0
    assert result_key(cached) == result_key(result)


def test_store_topup_runs_only_the_delta_and_matches_fresh(tmp_path):
    small = tiny_spec(n_injections=6)
    engine = CampaignEngine(small, cache_dir=tmp_path)
    engine.run()
    full_lanes = engine.last_report.executed_lanes

    big = small.with_injections(12)
    topup = CampaignEngine(big, cache_dir=tmp_path)
    extended = topup.run()
    assert topup.last_report.base_injections == 6
    assert topup.last_report.executed_lanes == full_lanes  # 6 more per ff

    fresh = CampaignEngine(big).run()
    assert result_key(extended) == result_key(fresh)


def test_interrupted_run_resumes_from_checkpoint(tmp_path):
    spec = tiny_spec(n_injections=8, seed=11)

    class Interrupted(Exception):
        pass

    def bomb(done, total):
        if done == 2:
            raise Interrupted

    # progress_interval=0 forwards every shard notification; the default
    # time-based throttle could suppress the bomb's (done == 2) call on
    # fast tiny shards.  Four cycle ranges, so there is a second to bomb.
    engine = CampaignEngine(
        spec,
        cache_dir=tmp_path,
        shards_per_job=SHARDS_PER_JOB,
        progress=bomb,
        progress_interval=0.0,
    )
    with pytest.raises(Interrupted):
        engine.run()

    resumed = CampaignEngine(spec, cache_dir=tmp_path)
    result = resumed.run()
    # every bucket finished before the interrupt was carried over ...
    assert resumed.last_report.resumed_buckets == engine.last_report.executed_buckets
    assert resumed.last_report.resumed_buckets > 0
    # ... and only the remainder was simulated
    fresh = CampaignEngine(spec).run()
    assert result_key(result) == result_key(fresh)


def test_interrupt_after_range_shard_two_resumes_bit_identically(tmp_path):
    """At jobs=1 the range shards run in cycle order: an interrupt after the
    second one checkpoints exactly the first two ranges, and the resumed
    run simulates only the rest and lands on the pinned counters."""
    spec = legacy_tiny_spec()
    context = build_context(spec)
    buckets = legacy_buckets(spec, context.window_cycles(), context.ff_names(spec))
    shards = cycle_range_shards(buckets, SHARDS_PER_JOB)

    class Interrupted(Exception):
        pass

    def bomb(done, total):
        if done == 2:
            raise Interrupted

    engine = CampaignEngine(
        spec,
        cache_dir=tmp_path,
        shards_per_job=SHARDS_PER_JOB,
        progress=bomb,
        progress_interval=0.0,
    )
    with pytest.raises(Interrupted):
        engine.run()
    done_cycles, _payload = CampaignStore(tmp_path / "campaigns").load_partial(
        spec, 0, spec.n_injections
    )
    assert done_cycles == {b.cycle for shard in shards[:2] for b in shard}

    resumed = CampaignEngine(spec, cache_dir=tmp_path)
    result = resumed.run()
    assert resumed.last_report.resumed_buckets == len(done_cycles)
    assert resumed.last_report.executed_buckets == sum(len(s) for s in shards[2:])
    assert counter_digest(result) == LEGACY_TINY_DIGEST


def test_default_serial_flat_run_resumes_from_zero(tmp_path, monkeypatch):
    """A serial flat run in the default layout sweeps its window as one
    cycle range, and a checkpoint holds finished ranges only: an interrupt
    inside the sweep leaves no checkpoint, and the rerun simulates every
    bucket.  Pass ``shards_per_job`` to keep finished ranges."""
    spec = legacy_tiny_spec()

    class Interrupted(KeyboardInterrupt):
        """Ctrl-C mid-sweep (the supervisor retries an ``Exception``)."""

    def interrupted_sweep(self, *args, **kwargs):
        raise Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(_ShardRunner, "run_shard", interrupted_sweep)
        engine = CampaignEngine(spec, cache_dir=tmp_path)
        with pytest.raises(Interrupted):
            engine.run()
    assert engine.last_report.n_shards == 1
    assert CampaignStore(tmp_path / "campaigns").load_partial(
        spec, 0, spec.n_injections
    ) is None

    resumed = CampaignEngine(spec, cache_dir=tmp_path)
    result = resumed.run()
    assert resumed.last_report.resumed_buckets == 0
    context = build_context(spec)
    buckets = legacy_buckets(spec, context.window_cycles(), context.ff_names(spec))
    assert resumed.last_report.executed_buckets == len(buckets)
    assert counter_digest(result) == LEGACY_TINY_DIGEST


def test_snapshot_clears_any_superseded_partial(tmp_path):
    """A snapshot supersedes every checkpoint targeting <= its budget.

    Historically ``save_snapshot`` only cleared a partial whose target
    *equaled* the snapshot budget, so a checkpoint from an interrupted
    smaller-budget run survived a successful bigger run and was re-served
    to the next run of that smaller budget.
    """
    spec8 = tiny_spec(n_injections=8)
    store = CampaignStore(tmp_path)
    accum = {"ff": {"a": [2, 1, 3]}, "n_forward_runs": 1}

    # Partial targeting 8, then a 12-injection snapshot lands: cleared.
    store.save_partial(spec8, 0, 8, {3, 4}, accum)
    assert store.load_partial(spec8, 0, 8) is not None
    bigger = CampaignEngine(spec8.with_injections(12)).run()
    store.save_snapshot(spec8, bigger)
    assert store.load_partial(spec8, 0, 8) is None

    # Partial targeting *beyond* the snapshot stays: its delta is still
    # unfinished work the snapshot does not contain.
    store.save_partial(spec8, 0, 20, {3, 4}, accum)
    store.save_snapshot(spec8, bigger)
    assert store.load_partial(spec8, 0, 20) is not None


def test_interrupted_topup_roundtrip(tmp_path):
    """Interrupt a top-up, land a bigger snapshot, re-run the top-up."""
    small = tiny_spec(n_injections=6)
    CampaignEngine(small, cache_dir=tmp_path).run()

    class Interrupted(Exception):
        pass

    def bomb(done, total):
        raise Interrupted

    topup = CampaignEngine(
        small.with_injections(10),
        cache_dir=tmp_path,
        progress=bomb,
        progress_interval=0.0,
    )
    with pytest.raises(Interrupted):
        topup.run()
    store = CampaignStore(tmp_path / "campaigns")
    assert store.load_partial(small, 6, 10) is not None

    # A full 12-injection run supersedes the interrupted 6->10 checkpoint.
    big = CampaignEngine(small.with_injections(12), cache_dir=tmp_path).run()
    assert store.load_partial(small, 6, 10) is None

    # The re-run 6->10 top-up recomputes cleanly and matches a fresh run.
    redo = CampaignEngine(small.with_injections(10), cache_dir=tmp_path).run()
    assert result_key(redo) == result_key(CampaignEngine(small.with_injections(10)).run())
    assert result_key(big) == result_key(CampaignEngine(small.with_injections(12)).run())


def test_store_family_and_cache_keys():
    stream6 = tiny_spec(n_injections=6)
    stream12 = stream6.with_injections(12)
    assert stream6.family_key() == stream12.family_key()
    assert stream6.cache_key() != stream12.cache_key()

    legacy6 = tiny_spec(schedule="legacy", n_injections=6)
    legacy12 = legacy6.with_injections(12)
    assert legacy6.family_key() != legacy12.family_key()
    assert stream6.family_key() != legacy6.family_key()


def test_store_ignores_corrupt_documents(tmp_path):
    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(spec).write_text("{not json")
    assert store.load_exact(spec) is None
    assert store.best_snapshot(spec) is None
    assert store.stored_budgets(spec) == []


@pytest.mark.parametrize(
    "payload",
    [
        "",  # empty file
        "[1, 2, 3]",  # valid JSON, wrong top-level type
        '{"store_version": 1}',  # missing family/snapshots
        '{"store_version": 1, "family": "FAMILY", "snapshots": [1]}',
        '{"store_version": 1, "family": "FAMILY", "snapshots": {"x": 1},'
        ' "partial": "broken"}',
    ],
    ids=["empty", "wrong-type", "missing-keys", "bad-snapshots", "bad-partial"],
)
def test_store_tolerates_malformed_shards(tmp_path, payload):
    """Any unusable shard reads as 'nothing cached' instead of crashing."""
    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(spec).write_text(payload.replace("FAMILY", spec.family_key()))
    assert store.load_exact(spec) is None
    assert store.best_snapshot(spec) is None
    assert store.load_partial(spec, 0, 6) is None
    assert store.stored_budgets(spec) == []


def test_store_skips_undecodable_snapshot_payload(tmp_path):
    """A snapshot whose payload no longer parses is skipped by both loaders
    (the budget stays listed in the inventory, but nothing crashes)."""
    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(spec).write_text(
        '{"store_version": 1, "family": "%s",'
        ' "snapshots": {"6": {"bogus": true}}, "partial": null}'
        % spec.family_key()
    )
    assert store.load_exact(spec) is None
    assert store.best_snapshot(spec) is None
    assert store.stored_budgets(spec) == [6]


def test_store_tolerates_truncated_shard_and_recomputes(tmp_path):
    """A shard cut off mid-write is skipped and the campaign recomputed."""
    spec = tiny_spec(n_injections=6)
    engine = CampaignEngine(spec, cache_dir=tmp_path)
    result = engine.run()

    store = CampaignStore(tmp_path / "campaigns")
    path = store.path_for(spec)
    assert path.exists()
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # truncate mid-document

    recovered = CampaignEngine(spec, cache_dir=tmp_path)
    recomputed = recovered.run()
    assert not recovered.last_report.cache_hit
    assert recovered.last_report.executed_forward_runs > 0
    assert result_key(recomputed) == result_key(result)
    # The recomputed result overwrites the damaged shard.
    third = CampaignEngine(spec, cache_dir=tmp_path)
    third.run()
    assert third.last_report.cache_hit


def test_store_tolerates_truncated_partial_checkpoint(tmp_path):
    """A corrupt mid-run checkpoint is dropped, not resumed into garbage."""
    import json

    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.save_partial(spec, 0, 6, {3, 4}, {"ff": {}, "n_forward_runs": 1})
    assert store.load_partial(spec, 0, 6) is not None
    path = store.path_for(spec)
    doc = json.loads(path.read_text())
    doc["partial"]["done_cycles"] = "oops"
    path.write_text(json.dumps(doc))
    assert store.load_partial(spec, 0, 6) is None


@pytest.mark.parametrize(
    "mutation",
    [
        {"done_cycles": [[1], 2]},  # unhashable element would crash set()
        {"done_cycles": ["3", 4]},  # mistyped element would double-count
        {"accum": {"ff": {}, "n_forward_runs": "oops"}},
        {"accum": {"ff": {}, "total_lane_cycles": None}},
        {"accum": {"ff": {}, "wall_seconds": "fast"}},
    ],
    ids=["unhashable-cycle", "stringly-cycle", "bad-forward-runs",
         "bad-lane-cycles", "bad-wall"],
)
def test_store_drops_partial_with_mistyped_fields(tmp_path, mutation):
    """Element-level damage inside an otherwise well-shaped checkpoint is
    dropped instead of crashing (or silently double-counting) on resume."""
    import json

    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.save_partial(spec, 0, 6, {3, 4}, {"ff": {}, "n_forward_runs": 1})
    path = store.path_for(spec)
    doc = json.loads(path.read_text())
    doc["partial"].update(mutation)
    path.write_text(json.dumps(doc))
    assert store.load_partial(spec, 0, 6) is None


def test_store_skips_wrong_typed_snapshot_payload(tmp_path):
    """A snapshot slot holding a non-dict must be skipped, not crash with
    AttributeError inside CampaignResult.from_payload."""
    spec = tiny_spec(n_injections=6)
    store = CampaignStore(tmp_path)
    store.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(spec).write_text(
        '{"store_version": 1, "family": "%s",'
        ' "snapshots": {"6": "junk", "4": [1, 2]}, "partial": null}'
        % spec.family_key()
    )
    assert store.load_exact(spec) is None
    assert store.best_snapshot(spec) is None


def test_store_drops_partial_with_truncated_ff_records(tmp_path):
    """A checkpoint whose per-ff counters are truncated is dropped, and the
    engine recomputes instead of resuming into an IndexError."""
    import json

    spec = tiny_spec(n_injections=6)
    engine = CampaignEngine(spec, cache_dir=tmp_path)
    reference = engine.run()

    store = CampaignStore(tmp_path / "campaigns")
    ff_name = next(iter(reference.results))
    doc = json.loads(store.path_for(spec).read_text())
    doc["snapshots"] = {}  # force a real run that would consult the partial
    doc["partial"] = {
        "base": 0,
        "target": 6,
        "done_cycles": [1],
        "accum": {
            "ff": {ff_name: [1]},  # truncated record
            "n_forward_runs": 1,
            "total_lane_cycles": 10,
            "wall_seconds": 0.1,
        },
    }
    store.path_for(spec).write_text(json.dumps(doc))
    assert store.load_partial(spec, 0, 6) is None

    recovered = CampaignEngine(spec, cache_dir=tmp_path)
    result = recovered.run()
    assert recovered.last_report.resumed_buckets == 0
    assert result_key(result) == result_key(reference)


# ----------------------------------------------------------------- engine


def test_engine_ff_subset():
    context = build_context(tiny_spec())
    subset = tuple(context.netlist.flip_flop_names()[:4])
    spec = tiny_spec(n_injections=5, ff_names=subset)
    result = CampaignEngine(spec).run()
    assert set(result.results) == set(subset)
    assert all(r.n_injections == 5 for r in result.results.values())


def test_engine_rejects_bad_parameters():
    with pytest.raises(ValueError, match="schedule"):
        tiny_spec(schedule="chaotic")
    with pytest.raises(ValueError, match="criterion"):
        tiny_spec(criterion="vibes")
    with pytest.raises(ValueError, match="n_injections"):
        tiny_spec(n_injections=0)
    with pytest.raises(ValueError, match="jobs"):
        CampaignEngine(tiny_spec(), jobs=0)


def test_stream_spec_rejects_n_time_slots():
    """Stream draws ignore the legacy slot-pool size, so setting it would
    only split the store's content address."""
    with pytest.raises(ValueError, match="n_time_slots"):
        tiny_spec(schedule="stream", n_time_slots=3, n_injections=4)


def test_engine_rejects_mismatched_context():
    from repro.faultinjection import AnyOutputCriterion

    context = build_context(tiny_spec())
    wrong_circuit = tiny_spec(circuit="xgmac_mini")
    with pytest.raises(ValueError, match="does not match"):
        CampaignEngine(wrong_circuit, context=context)

    context.criterion = AnyOutputCriterion.all_outputs(context.netlist)
    with pytest.raises(ValueError, match="criterion"):
        CampaignEngine(tiny_spec(), context=context)


def test_spec_dict_round_trip():
    spec = tiny_spec(ff_names=("ff_a", "ff_b"))
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
