"""Warm-start cache tests: resident contexts, shared traces, packed tallies.

Two contracts matter here:

* **bit-identity** — re-homing a golden trace into shared memory, resolving
  a resident runner instead of cold-building, and round-tripping shard
  tallies through the packed transport must never change a single counter;
* **lifecycle** — shared-memory segments belong to the creating process:
  children can read but never unlink, and releasing the cache reclaims
  every segment (``/dev/shm`` stays clean).
"""

import os
import pickle

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    SharedPackedRows,
    active_segment_names,
    release_warm_cache,
    warm_context,
    warm_stats,
)
from repro.campaigns.executor import _ShardRunner
from repro.campaigns.warmstart import (
    ensure_runner,
    pack_tallies,
    resolve_runner,
    share_golden_trace,
    unpack_tallies,
    validate_packed_tally,
)
from repro.circuits.generator import GENERATED_FF_COUNTS
from repro.circuits.library import LIBRARY_CIRCUITS, get_circuit
from repro.circuits.workloads import build_workload_for


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with an empty warm cache so hit/miss
    assertions are deterministic and no segments cross test boundaries."""
    release_warm_cache()
    yield
    release_warm_cache()


def tiny_spec(**overrides) -> CampaignSpec:
    params = dict(
        circuit="xgmac_tiny",
        n_frames=4,
        min_len=2,
        max_len=3,
        gap=12,
        workload_seed=7,
        n_injections=8,
        seed=5,
        schedule="stream",
    )
    params.update(overrides)
    return CampaignSpec(**params)


def result_key(result):
    return {
        name: (r.n_injections, r.n_failures, r.latency_sum)
        for name, r in result.results.items()
    }


# -------------------------------------------------------- SharedPackedRows


def test_shared_rows_roundtrip_indexing_iteration_and_slices():
    rows = [0, 1, (1 << 200) - 3, 42, 1 << 511]
    shared = SharedPackedRows.pack(rows)
    try:
        assert len(shared) == len(rows)
        assert [shared[i] for i in range(len(rows))] == rows
        assert list(shared) == rows
        assert shared.to_list() == rows
        assert shared[-1] == rows[-1]
        assert shared[1:4] == rows[1:4]
        with pytest.raises(IndexError):
            shared[len(rows)]
    finally:
        shared.unlink()


def test_shared_rows_pickle_deflates_to_plain_list():
    """Spawn platforms and stray pickling must see the same values,
    just unshared — never a dangling segment reference."""
    rows = [7, 1 << 100]
    shared = SharedPackedRows.pack(rows)
    try:
        revived = pickle.loads(pickle.dumps(shared))
        assert revived == rows
        assert type(revived) is list
    finally:
        shared.unlink()


def test_shared_rows_unlink_is_owner_only():
    shared = SharedPackedRows.pack([1, 2, 3])
    segment = f"/dev/shm/{shared.segment_name}"
    if not os.path.exists(segment):
        shared.unlink()
        pytest.skip("POSIX shared memory not visible via /dev/shm")
    # A forked child inherits the view but a different PID: its unlink
    # (e.g. via atexit after a chaos kill path) must be a no-op.
    shared._owner_pid = os.getpid() + 1
    shared.unlink()
    assert os.path.exists(segment), "non-owner unlink must not tear down"
    shared._owner_pid = os.getpid()
    shared.unlink()
    assert not os.path.exists(segment)


def test_share_golden_trace_is_idempotent_and_bit_identical():
    """All library circuits plus a generated mesh: the re-homed trace must
    reproduce every packed row of the plain-list trace exactly."""
    for circuit in LIBRARY_CIRCUITS + ["mesh_tiny"]:
        netlist = get_circuit(circuit)
        workload = build_workload_for(circuit, netlist, n_frames=2, gap=8)
        golden = workload.testbench.run_golden()
        before = (
            list(golden.ff_state),
            list(golden.outputs),
            list(golden.applied_inputs),
        )
        segments = share_golden_trace(golden)
        try:
            assert isinstance(golden.ff_state, SharedPackedRows), circuit
            after = (
                list(golden.ff_state),
                list(golden.outputs),
                list(golden.applied_inputs),
            )
            assert after == before, f"{circuit}: shared trace diverged"
            assert share_golden_trace(golden) == [], "second share is a no-op"
        finally:
            for seg in segments:
                seg.unlink()


# ----------------------------------------------------------- packed tallies


def test_packed_tally_roundtrip():
    ff = {"ff_b": [10, 3, 17], "ff_a": [8, 0, 0], "ff_c": [5, 5, 125]}
    order = ["ff_a", "ff_b", "ff_c"]
    block = pack_tallies(ff, order.index)
    assert validate_packed_tally(block) is None
    assert unpack_tallies(block, order) == ff


def test_packed_tally_validation_rejects_torn_blocks():
    block = pack_tallies({"ff_a": [1, 2, 3]}, ["ff_a"].index)
    assert validate_packed_tally("not a dict")
    assert validate_packed_tally({"n": -1})
    assert validate_packed_tally({**block, "idx": block["idx"][:-1]})
    assert validate_packed_tally({**block, "counts": b""})
    assert validate_packed_tally({**block, "n": 2})


# ------------------------------------------------------------ warm cache


def test_warm_context_hits_within_family_and_fixes_double_build():
    spec = tiny_spec()
    ctx, hit = warm_context(spec)
    assert not hit
    # Same family, different budget and policy: one resident context
    # serves all.
    again, hit = warm_context(
        tiny_spec(n_injections=40, policy="sequential", target_margin=0.1)
    )
    assert hit and again is ctx
    # A caller-provided context is adopted, not rebuilt (the historical
    # double-build when CampaignEngine(ctx) re-derived it in workers).
    release_warm_cache()
    adopted, hit = warm_context(spec, ctx)
    assert not hit and adopted is ctx


def test_ensure_and_resolve_runner_share_one_build():
    spec = tiny_spec()
    runner, hit, warmup = ensure_runner(spec, _ShardRunner)
    assert not hit and warmup > 0
    same, hit, warmup = ensure_runner(spec, _ShardRunner)
    assert hit and same is runner and warmup == 0.0
    assert resolve_runner(spec) is runner
    assert resolve_runner(tiny_spec(seed=99)) is None, "other family is cold"
    stats = warm_stats()
    assert stats == {"hits": 1, "misses": 1}
    # Family siblings (other budget/policy) share the one resident runner.
    assert resolve_runner(tiny_spec(n_injections=40, policy="sequential")) is runner
    assert active_segment_names(), "warm family holds shm-backed golden rows"


# ------------------------------------------------- campaign-level identity


def test_campaign_results_identical_cold_warm_serial_and_parallel():
    """The acceptance property: a cold engine, a warm engine and a warm
    parallel engine all produce bit-identical per-flip-flop counters."""
    spec = tiny_spec()
    cold = CampaignEngine(spec, jobs=1)
    cold_result = cold.run()
    assert cold.last_report.warm_misses >= 1
    assert cold.last_report.warmup_seconds > 0

    warm = CampaignEngine(spec, jobs=1)
    warm_result = warm.run()
    assert warm.last_report.warm_hits >= 1
    assert warm.last_report.warm_misses == 0
    assert warm.last_report.warmup_seconds == 0.0

    parallel = CampaignEngine(spec, jobs=2)
    parallel_result = parallel.run()

    assert result_key(warm_result) == result_key(cold_result)
    assert result_key(parallel_result) == result_key(cold_result)


def test_campaign_on_generated_mesh_warm_equals_cold():
    spec = tiny_spec(circuit="mesh_tiny", criterion="any_output", n_injections=4)
    cold = CampaignEngine(spec, jobs=1).run()
    warm_engine = CampaignEngine(spec, jobs=1)
    warm = warm_engine.run()
    assert warm_engine.last_report.warm_hits >= 1
    assert result_key(warm) == result_key(cold)
    assert len(cold.results) == GENERATED_FF_COUNTS["mesh_tiny"]
