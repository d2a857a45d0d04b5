"""Supervisor, checkpoint-throttle, store-quarantine and crash/resume tests.

Complements tests/test_chaos.py (which drives the fault machinery through
injected chaos): here the supervisor is exercised as a unit through plain
closures, and the engine's interrupt/resume contract is pinned across a
matrix of circuits, sampling policies and job counts — an interrupted
campaign, resumed, must land bit-identical to a never-interrupted one.
"""

import json

import numpy as np
import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    CampaignStore,
    RetryPolicy,
    SupervisedPool,
)
from repro.campaigns.executor import SHARDS_PER_JOB
from repro.circuits.workloads import default_criterion
from repro.obs import Telemetry, use_telemetry

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


def counter(telemetry, name):
    return telemetry.registry.counter(name).value


class Interrupted(Exception):
    """Stand-in for a mid-campaign crash, raised from the progress hook."""


def bomb_at(n):
    def bomb(done, total):
        if done == n:
            raise Interrupted(f"progress bomb at {done}/{total}")

    return bomb


# ------------------------------------------------------------ retry policy


def test_retry_policy_rejects_nonsense():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(shard_timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_pool_rebuilds=-1)


def test_retry_policy_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.4)
    assert policy.backoff(10) == pytest.approx(0.5)


# ------------------------------------------------- supervisor (unit level)


def fast_policy(**overrides) -> RetryPolicy:
    params = dict(max_attempts=3, backoff_base=0.0, backoff_max=0.0)
    params.update(overrides)
    return RetryPolicy(**params)


def test_supervisor_requires_serial_fn_for_one_job():
    with pytest.raises(ValueError):
        SupervisedPool(None, jobs=1)


def test_supervisor_serial_retries_until_success():
    def flaky(payload, attempt):
        if payload == "flaky" and attempt < 3:
            raise RuntimeError("transient")
        return {"payload": payload, "attempt": attempt}

    sup = SupervisedPool(None, jobs=1, retry=fast_policy(), serial_fn=flaky)
    outcomes = {o.key: o for o in sup.run(["steady", "flaky"])}
    sup.shutdown(clean=True)
    assert outcomes[0].payload == {"payload": "steady", "attempt": 1}
    assert outcomes[1].payload == {"payload": "flaky", "attempt": 3}
    assert outcomes[1].attempts == 3
    assert sup.retries == 2
    assert not sup.quarantined


def test_supervisor_serial_quarantines_poison_but_finishes_rest():
    def runner(payload, attempt):
        if payload == "poison":
            raise RuntimeError("always broken")
        return {"payload": payload}

    with use_telemetry(Telemetry()) as telemetry:
        sup = SupervisedPool(None, jobs=1, retry=fast_policy(), serial_fn=runner)
        outcomes = {o.key: o for o in sup.run(["ok", "poison", "also ok"])}
        sup.shutdown(clean=True)
    assert outcomes[0].payload == {"payload": "ok"}
    assert outcomes[2].payload == {"payload": "also ok"}
    bad = outcomes[1]
    assert bad.payload is None
    assert bad.quarantine is not None
    assert bad.quarantine.attempts == 3
    assert "always broken" in bad.quarantine.reason
    assert [q.key for q in sup.quarantined] == [1]
    assert counter(telemetry, "robustness.quarantined_shards") == 1


def test_supervisor_validate_rejects_malformed_payloads():
    calls = {"n": 0}

    def runner(payload, attempt):
        calls["n"] += 1
        return {"garbage": True} if attempt == 1 else {"ff": {}}

    def validate(payload):
        return None if "ff" in payload else "missing 'ff' table"

    with use_telemetry(Telemetry()) as telemetry:
        sup = SupervisedPool(
            None, jobs=1, retry=fast_policy(), serial_fn=runner, validate=validate
        )
        outcomes = list(sup.run(["shard"]))
        sup.shutdown(clean=True)
    assert outcomes[0].payload == {"ff": {}}
    assert outcomes[0].attempts == 2
    assert calls["n"] == 2
    assert counter(telemetry, "robustness.malformed_payloads") == 1


ORDER = ["ff_a", "ff_b", "ff_c"]
TALLIED = np.ones(len(ORDER), dtype=bool)


def packed_payload(idx, skipped=None):
    """A shard payload whose packed tally rows carry the raw *idx* values,
    one ``[1, 0, 0]`` row each, unchecked."""
    return {
        "ff": {
            "n": len(idx),
            "idx": np.asarray(idx, dtype="<i4").tobytes(),
            "counts": np.tile([1, 0, 0], (len(idx), 1)).astype("<i8").tobytes(),
        },
        "n_forward_runs": 1,
        "total_lane_cycles": 12,
        "skipped": skipped or {},
    }


def test_plain_counter_map_payload_is_malformed():
    """Shard tallies travel only as a packed block: a plain
    ``{name: [n, k, lat]}`` map is rejected before it is merged."""
    from repro.campaigns import executor, warmstart

    plain = {"ff_a": [2, 1, 3], "ff_b": [1, 0, 0]}
    payload = {
        "ff": warmstart.pack_tallies(plain, ORDER.index),
        "n_forward_runs": 1,
        "total_lane_cycles": 12,
    }
    assert executor._shard_payload_error(payload, TALLIED, set(ORDER)) is None
    payload["ff"] = plain
    assert executor._shard_payload_error(payload, TALLIED, set(ORDER)) is not None


@pytest.mark.parametrize(
    "idx,skipped",
    [
        ([0, -1], None),  # would decode onto the last flip-flop
        ([0, 7], None),  # would raise IndexError while merging
        ([1, 1], None),  # one flip-flop credited twice
        ([0], {"ff_z": 2}),  # would raise KeyError in the policy tallies
    ],
    ids=["negative-idx", "idx-past-order", "duplicate-idx", "unknown-skip"],
)
def test_packed_rows_outside_the_order_are_malformed(idx, skipped):
    from repro.campaigns import executor

    valid = packed_payload([0, 2])
    assert executor._shard_payload_error(valid, TALLIED, set(ORDER)) is None
    payload = packed_payload(idx, skipped)
    assert executor._shard_payload_error(payload, TALLIED, set(ORDER)) is not None


def test_engine_validator_knows_the_measured_flip_flops():
    """The supervisor's ``validate`` seam checks tally rows and skips
    against the flip-flops the engine's campaign measures: a row for a
    netlist flip-flop outside ``spec.ff_names`` would otherwise raise
    ``KeyError`` in the sequential driver's tallies."""
    order = CampaignEngine(tiny_spec(), jobs=1)._ff_order()
    engine = CampaignEngine(tiny_spec(ff_names=tuple(order[:4])), jobs=1)
    validate = engine._supervised_pool(1).validate
    assert validate(packed_payload([0, 3], {order[1]: 1})) is None
    assert validate(packed_payload([len(order)])) is not None
    assert validate(packed_payload([-1])) is not None
    assert validate(packed_payload([4])) is not None
    assert validate(packed_payload([0], {order[4]: 1})) is not None


def test_supervisor_serial_propagates_keyboard_interrupt():
    """Only Exception is retried; a ^C must reach the engine's checkpoint
    path instead of being retried/quarantined away."""

    def runner(payload, attempt):
        raise KeyboardInterrupt

    sup = SupervisedPool(None, jobs=1, retry=fast_policy(), serial_fn=runner)
    with pytest.raises(KeyboardInterrupt):
        list(sup.run(["shard"]))
    sup.shutdown(clean=False)


# ------------------------------------------------------ crash/resume matrix


def matrix_spec(circuit, policy, **overrides) -> CampaignSpec:
    if circuit == "xgmac_tiny":
        params = dict(TINY, n_injections=8, seed=5, schedule="stream")
    else:
        params = dict(
            circuit=circuit,
            n_frames=4,
            min_len=2,
            max_len=3,
            gap=12,
            workload_seed=7,
            n_injections=6,
            seed=9,
            schedule="stream",
            criterion=default_criterion(circuit),
        )
    if policy == "sequential":
        # margin 0 pins the draw plan, so interrupted-and-resumed runs are
        # comparable bit-for-bit against a never-interrupted run.
        params.update(policy="sequential", target_margin=0.0)
    params.update(overrides)
    return CampaignSpec(**params)


MATRIX = [
    ("xgmac_tiny", "flat", 1),
    ("xgmac_tiny", "flat", 2),
    ("xgmac_tiny", "sequential", 1),
    ("xgmac_tiny", "sequential", 2),
    ("counter16", "flat", 2),
    ("counter16", "sequential", 1),
    ("crc32", "flat", 1),
    ("crc32", "sequential", 2),
]


@pytest.mark.parametrize("circuit,policy,jobs", MATRIX)
def test_crash_resume_matrix(tmp_path, circuit, policy, jobs):
    """Interrupt mid-campaign, resume from the checkpoint, land bit-identical
    to a fault-free run — across circuits, sampling policies and job counts."""
    spec = matrix_spec(circuit, policy)
    fresh = CampaignEngine(spec, jobs=jobs).run()

    engine = CampaignEngine(
        spec,
        jobs=jobs,
        cache_dir=tmp_path,
        progress=bomb_at(1),
        progress_interval=0.0,
    )
    with pytest.raises(Interrupted):
        engine.run()

    resumed = CampaignEngine(spec, jobs=jobs, cache_dir=tmp_path)
    result = resumed.run()
    assert result_key(result) == result_key(fresh)
    assert not resumed.last_report.quarantined_shards


def test_keyboard_interrupt_mid_round_resumes(tmp_path):
    """^C inside a sequential round goes down the terminate() teardown path
    and still leaves a checkpoint the next run resumes from."""
    spec = matrix_spec("xgmac_tiny", "sequential")
    fresh = CampaignEngine(spec, jobs=2).run()

    def ctrl_c(done, total):
        if done == 1:
            raise KeyboardInterrupt

    engine = CampaignEngine(
        spec, jobs=2, cache_dir=tmp_path, progress=ctrl_c, progress_interval=0.0
    )
    with pytest.raises(KeyboardInterrupt):
        engine.run()

    resumed = CampaignEngine(spec, jobs=2, cache_dir=tmp_path)
    assert result_key(resumed.run()) == result_key(fresh)


# ------------------------------------------------------ checkpoint throttle


def test_throttled_checkpoints_still_exact_on_interrupt(tmp_path):
    """With a huge throttle interval no mid-run checkpoint is due — but the
    crash path must still write an exact one, and resume must cover exactly
    the work done before the interrupt.  Four cycle ranges, so that the
    interrupt after the second leaves finished work to resume."""
    spec = tiny_spec()
    fresh = CampaignEngine(spec, jobs=1).run()
    with use_telemetry(Telemetry()) as telemetry:
        engine = CampaignEngine(
            spec,
            jobs=1,
            shards_per_job=SHARDS_PER_JOB,
            cache_dir=tmp_path,
            progress=bomb_at(2),
            progress_interval=0.0,
            checkpoint_interval=3600.0,
        )
        with pytest.raises(Interrupted):
            engine.run()
        assert counter(telemetry, "store.checkpoint_skips") >= 1
        assert counter(telemetry, "store.checkpoint_writes") >= 1

    resumed = CampaignEngine(spec, jobs=1, cache_dir=tmp_path)
    result = resumed.run()
    assert resumed.last_report.resumed_buckets == engine.last_report.executed_buckets
    assert result_key(result) == result_key(fresh)


def test_throttle_interval_reduces_checkpoint_writes(tmp_path):
    spec = tiny_spec()
    layout = dict(jobs=1, shards_per_job=SHARDS_PER_JOB)  # mid-run checkpoints
    with use_telemetry(Telemetry()) as eager:
        CampaignEngine(
            spec, cache_dir=tmp_path / "eager", checkpoint_interval=0.0, **layout
        ).run()
    with use_telemetry(Telemetry()) as throttled:
        CampaignEngine(
            spec, cache_dir=tmp_path / "lazy", checkpoint_interval=3600.0, **layout
        ).run()
    assert counter(eager, "store.checkpoint_skips") == 0
    assert counter(throttled, "store.checkpoint_skips") >= 1
    assert counter(eager, "store.checkpoint_writes") > counter(
        throttled, "store.checkpoint_writes"
    )


# -------------------------------------------------------- store quarantine


def snapshot_on_disk(tmp_path, spec):
    engine = CampaignEngine(spec, jobs=1, cache_dir=tmp_path)
    baseline = engine.run()
    store = CampaignStore(tmp_path / "campaigns")
    path = store.path_for(spec)
    assert path.exists()
    return baseline, store, path


def test_truncated_store_file_is_quarantined_and_recomputed(tmp_path):
    spec = tiny_spec()
    baseline, store, path = snapshot_on_disk(tmp_path, spec)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])

    with use_telemetry(Telemetry()) as telemetry:
        assert store.load_exact(spec) is None
        assert counter(telemetry, "store.corrupt_files") == 1
    corpse = path.with_suffix(path.suffix + ".corrupt")
    assert corpse.exists(), "damaged bytes must be kept for postmortem"
    assert not path.exists(), "the damaged file must not shadow future lookups"

    rerun = CampaignEngine(spec, jobs=1, cache_dir=tmp_path)
    result = rerun.run()
    assert not rerun.last_report.cache_hit
    assert result_key(result) == result_key(baseline)


def test_non_object_store_document_is_quarantined(tmp_path):
    spec = tiny_spec()
    _baseline, store, path = snapshot_on_disk(tmp_path, spec)
    path.write_text(json.dumps([1, 2, 3]))
    with use_telemetry(Telemetry()) as telemetry:
        assert store.load_exact(spec) is None
        assert counter(telemetry, "store.corrupt_files") == 1
    assert path.with_suffix(path.suffix + ".corrupt").exists()


def test_newer_store_version_left_untouched(tmp_path):
    """A file written by newer code is not corrupt — it must be ignored
    without renaming, so a rollback doesn't destroy forward data."""
    spec = tiny_spec()
    _baseline, store, path = snapshot_on_disk(tmp_path, spec)
    path.write_text(json.dumps({"store_version": 99, "future": True}))
    with use_telemetry(Telemetry()) as telemetry:
        assert store.load_exact(spec) is None
        assert counter(telemetry, "store.corrupt_files") == 0
    assert path.exists()
    assert not path.with_suffix(path.suffix + ".corrupt").exists()
    assert json.loads(path.read_text())["future"] is True
