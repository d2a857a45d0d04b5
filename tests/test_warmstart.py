"""Warm-start cache tests: resident contexts and runners, packed tallies.

The contract is **bit-identity**: resolving a resident runner instead of
cold-building, and round-tripping shard tallies through the packed
transport, must never change a single counter.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    build_context,
    release_warm_cache,
    warm_context,
)
from repro.campaigns.executor import _ShardRunner
from repro.campaigns.warmstart import (
    ensure_runner,
    pack_tallies,
    resolve_runner,
    unpack_tallies,
    validate_packed_tally,
)
from repro.circuits.generator import GENERATED_FF_COUNTS
from repro.obs import Telemetry, use_telemetry


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with an empty warm cache so hit/miss
    assertions are deterministic."""
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


# ----------------------------------------------------------- packed tallies


def test_packed_tally_roundtrip():
    ff = {"ff_b": [10, 3, 17], "ff_a": [8, 0, 0], "ff_c": [5, 5, 125]}
    order = ["ff_a", "ff_b", "ff_c"]
    block = pack_tallies(ff, order.index)
    assert validate_packed_tally(block, np.ones(3, dtype=bool)) is None
    assert unpack_tallies(block, order) == ff


def test_packed_tally_validation_rejects_torn_blocks():
    block = pack_tallies({"ff_a": [1, 2, 3]}, ["ff_a"].index)
    tallied = np.ones(1, dtype=bool)
    assert validate_packed_tally("not a dict", tallied)
    assert validate_packed_tally({"n": -1}, tallied)
    assert validate_packed_tally({**block, "idx": block["idx"][:-1]}, tallied)
    assert validate_packed_tally({**block, "counts": b""}, tallied)
    assert validate_packed_tally({**block, "n": 2}, tallied)


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
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        runner, hit, warmup = ensure_runner(spec, _ShardRunner)
        assert not hit and warmup > 0
        same, hit, warmup = ensure_runner(spec, _ShardRunner)
        assert hit and same is runner and warmup == 0.0
    assert resolve_runner(spec) is runner
    assert resolve_runner(tiny_spec(seed=99)) is None, "other family is cold"
    assert telemetry.registry.counter("warmstart.hits").value == 1
    assert telemetry.registry.counter("warmstart.misses").value == 1
    # Family siblings (other budget/policy) share the one resident runner.
    assert resolve_runner(tiny_spec(n_injections=40, policy="sequential")) is runner


def test_foreign_workload_context_is_refused():
    """A context whose workload differs from the spec's (here: a cut active
    window) is refused by both entry points, so it never enters the warm
    cache and never serves a later engine of the family."""
    spec = tiny_spec(schedule="legacy")
    cold = result_key(CampaignEngine(spec).run())
    release_warm_cache()
    context = build_context(spec)
    first, _last = context.workload.active_window
    context.workload = replace(context.workload, active_window=(first, first + 20))
    with pytest.raises(ValueError, match="active window"):
        CampaignEngine(spec, context=context)
    with pytest.raises(ValueError, match="active window"):
        ensure_runner(spec, _ShardRunner, context=context)
    assert resolve_runner(spec) is None
    assert result_key(CampaignEngine(spec).run()) == cold


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda w: replace(w, valid_nets=w.valid_nets[:-1]),
        lambda w: replace(w, data_nets=w.data_nets[1:]),
    ],
    ids=["valid_nets", "data_nets"],
)
def test_foreign_interface_nets_are_refused(corrupt):
    spec = tiny_spec()
    context = build_context(spec)
    context.workload = corrupt(context.workload)
    with pytest.raises(ValueError, match="nets"):
        warm_context(spec, context)


def test_built_context_is_adopted_once():
    """A context from ``build_context(spec)`` passes the check: it is
    adopted (one miss) and a later engine of the family hits the cache."""
    spec = tiny_spec(schedule="legacy")
    context = build_context(spec)
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        engine = CampaignEngine(spec, context=context)
        _runner, hit, _warmup = ensure_runner(spec, _ShardRunner, context=context)
        assert not hit
        engine.run()
        later = CampaignEngine(spec)
        later.run()
    assert later.context is context
    assert later.last_report.warm_hits >= 1 and later.last_report.warm_misses == 0
    assert telemetry.registry.counter("warmstart.misses").value == 1


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
