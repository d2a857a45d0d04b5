"""The benchmark's workloads: one closed-loop job each, run as *passes*.

A pass runs one workload's whole flow once, in this process, through the
program's public calls:

* set-up — synthesize the circuit and build its workload
  (``build_context``), record the golden trace (``ensure_golden``) and warm
  the shard runner (``warmstart.ensure_runner``, the call
  ``CampaignEngine.run`` makes first);
* the fault-injection campaign (``CampaignEngine.run``) into a fresh,
  empty result store — serial for the xgmac workloads, on ``nproc`` workers
  for the mesh;
* feature extraction (``build_dataset``) and the Table I protocol
  (``run_table1``) where the workload has them.

Every pass starts cold (``release_warm_cache()``, fresh netlist).  Set-up is
repeated cold ``setup_reps`` times and reported as the median, because one
cold xgmac set-up is under a second and varies by a third between repeats.

Importing this module pins the BLAS and OpenMP thread pools to one thread:
they size themselves when numpy loads, so it must be imported before
anything else imports numpy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

from repro.campaigns import (  # noqa: E402
    CampaignEngine,
    CampaignSpec,
    build_context,
    release_warm_cache,
)
from repro.campaigns.executor import _ShardRunner  # noqa: E402
from repro.campaigns.policy import realized_margins  # noqa: E402
from repro.campaigns.warmstart import ensure_runner  # noqa: E402
from repro.circuits.workloads import default_criterion  # noqa: E402
from repro.data import DATASET_PRESETS  # noqa: E402
from repro.experiments.table1 import run_table1  # noqa: E402
from repro.features.extractor import build_dataset  # noqa: E402
from repro.obs import Telemetry, use_telemetry  # noqa: E402

from tracing import NULL_RECORDER, SpanRecorder, instrument  # noqa: E402

#: ``--seed`` selects one of this many recorded input sets (campaign seeds).
INPUT_SETS = 10

#: Largest |R² − recorded R²| a Table I pass may show (k-NN and SVR).
R2_TOLERANCE = 0.02

#: Largest share of a traced pass's wall that may fall outside every layer.
LAYER_SUM_TOLERANCE = 0.02

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: Result stores, trace files and other run output (ignored by git).
OUT_DIR = ROOT / ".e2ebench"


def n_workers() -> int:
    return len(os.sched_getaffinity(0))


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _xgmac_spec(scale: str, policy: str) -> Callable[[int], CampaignSpec]:
    """The dataset flow's campaign spec for a preset (``generate_dataset``
    uses the ``legacy`` schedule; the sequential policy needs ``stream``)."""

    def make(campaign_seed: int) -> CampaignSpec:
        dataset_spec = replace(DATASET_PRESETS[scale], campaign_seed=campaign_seed)
        return CampaignSpec.from_dataset_spec(
            dataset_spec,
            schedule="legacy" if policy == "flat" else "stream",
            policy=policy,
        )

    return make


#: The tiny burst workload's whole active window (cycles 6..90 on every
#: generated mesh).
TINY_WINDOW_CYCLES = 84


def _generated_spec(circuit: str, n_injections: int) -> Callable[[int], CampaignSpec]:
    """A flat campaign on a generated circuit with the ``tiny`` workload
    knobs, each flip-flop's draws spread over the whole active window."""

    def make(campaign_seed: int) -> CampaignSpec:
        spec = CampaignSpec.from_dataset_spec(
            DATASET_PRESETS["tiny"], schedule="legacy", n_injections=n_injections
        )
        return replace(
            spec,
            circuit=circuit,
            criterion=default_criterion(circuit),
            seed=campaign_seed,
            n_time_slots=TINY_WINDOW_CYCLES,
        )

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int], CampaignSpec]
    #: Run the campaign on ``nproc`` workers (else in-process, jobs=1).
    parallel: bool = False
    #: Cold set-ups per pass; the last one feeds the campaign.
    setup_reps: int = 5
    #: Let ``CampaignEngine(spec)`` build its own context, as the
    #: ``campaign`` CLI does, instead of passing one in (``generate_dataset``
    #: rejects generated circuits; see README.md).
    engine_builds_context: bool = False
    features: bool = False
    table1: bool = False


WORKLOADS: Dict[str, Workload] = {
    "xgmac_table1": Workload(
        "xgmac_table1", _xgmac_spec("full", "flat"), features=True, table1=True
    ),
    "xgmac_sequential": Workload("xgmac_sequential", _xgmac_spec("full", "sequential")),
    # Runs by hand only: too unsteady on a shared 2-vCPU host for the
    # bounds of BENCHMARK.json (see README.md).
    "mesh_10k": Workload(
        "mesh_10k",
        _generated_spec("mesh_10k", 8),
        setup_reps=1,
        engine_builds_context=True,
        features=True,
    ),
    # Tiny variants for the smoke test (smoke.py); not in BENCHMARK.json.
    # mesh_tiny runs on nproc workers so the smoke test covers the pool.
    "xgmac_tiny": Workload(
        "xgmac_tiny", _xgmac_spec("tiny", "flat"), setup_reps=2, features=True, table1=True
    ),
    "mesh_tiny": Workload(
        "mesh_tiny",
        _generated_spec("mesh_tiny", 8),
        parallel=True,
        setup_reps=2,
        engine_builds_context=True,
        features=True,
    ),
}


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    campaign_s: float
    injections: int
    margin_max: float
    digest: str
    workers: int
    #: The sequential policy's target margin (None for flat campaigns).
    target_margin: Optional[float]
    report: object
    policy_meta: Dict
    registry: object
    n_forward_runs: int
    lane_cycles: int
    r2: Dict[str, float] = field(default_factory=dict)
    shape_holds: Optional[bool] = None
    recorder: Optional[SpanRecorder] = None


def counter_digest(result) -> str:
    """SHA-256 of every flip-flop's (name, injections, failures, latency sum)."""
    rows = [
        [name, r.n_injections, r.n_failures, r.latency_sum]
        for name, r in result.results.items()
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _cold() -> None:
    """Forget every warm family and collect garbage, outside any timing."""
    release_warm_cache()
    gc.collect()


def _set_up(workload: Workload, spec: CampaignSpec, jobs: int, cache_dir, rec):
    """One set-up from cold; returns (engine, context, seconds)."""
    start = time.perf_counter()
    if workload.engine_builds_context:
        engine = CampaignEngine(spec, jobs=jobs, cache_dir=cache_dir)
        with rec.span("campaigns.warmup"):
            engine.context.ensure_golden()
            ensure_runner(spec, _ShardRunner)
        context = engine.context
    else:
        with rec.span("circuits.synth"):
            context = build_context(spec)
        with rec.span("sim.golden"):
            context.ensure_golden()
        engine = CampaignEngine(spec, jobs=jobs, cache_dir=cache_dir, context=context)
        with rec.span("campaigns.warmup"):
            ensure_runner(spec, _ShardRunner, context=context)
    return engine, context, time.perf_counter() - start


def run_pass(
    workload: Workload, seed: int, cache_dir: Path, traced: bool = False
) -> PassResult:
    """Run *workload*'s flow once on the input set *seed* selects."""
    spec = workload.make_spec(input_set(seed))
    jobs = n_workers() if workload.parallel else 1
    with use_telemetry(Telemetry()):
        # Extra cold set-ups first: they only feed the set-up median, so
        # they stay outside the traced flow, its wall time and its registry.
        setups = []
        for _ in range(workload.setup_reps - 1):
            _cold()
            setups.append(_set_up(workload, spec, jobs, None, NULL_RECORDER)[2])
    _cold()
    telemetry = Telemetry()
    recorder = SpanRecorder() if traced else None
    rec = recorder or NULL_RECORDER
    with use_telemetry(telemetry), instrument(recorder):
        start = time.perf_counter()
        with rec.span("pass"):
            engine, context, setup = _set_up(workload, spec, jobs, cache_dir, rec)
            campaign_start = time.perf_counter()
            with rec.span("campaigns.run"):
                result = engine.run()
            campaign_s = time.perf_counter() - campaign_start
            table = None
            if workload.features:
                with rec.span("features.extract"):
                    dataset = build_dataset(context.netlist, context.golden, result)
                if workload.table1:
                    table = run_table1(dataset)
        wall_s = time.perf_counter() - start
    setups.append(setup)
    report = engine.last_report
    tallies = {
        name: [r.n_injections, r.n_failures, r.n_injections]
        for name, r in result.results.items()
    }
    passed = PassResult(
        wall_s=wall_s,
        setup_s=statistics.median(setups),
        campaign_s=campaign_s,
        injections=sum(r.n_injections for r in result.results.values()),
        margin_max=max(realized_margins(tallies).values()),
        digest=counter_digest(result),
        workers=min(jobs, max(1, report.n_shards)),
        target_margin=spec.target_margin if spec.policy == "sequential" else None,
        report=report,
        policy_meta=dict(engine.last_policy_meta),
        registry=telemetry.registry,
        n_forward_runs=result.n_forward_runs,
        lane_cycles=result.total_lane_cycles,
        recorder=recorder,
    )
    if table is not None:
        passed.r2 = {
            "knn": table.rows["k-NN"]["r2"],
            "svr": table.rows["SVR w/ RBF Kernel"]["r2"],
        }
        passed.shape_holds = table.shape_holds()
    release_warm_cache()
    return passed


# ------------------------------------------------------------------ layers

#: Per-layer time metrics, keyed by the span layer they are the self time of.
SPAN_LAYERS = {
    "circuits.synth": "circuits.synth_s",
    "sim.golden": "sim.golden_s",
    "campaigns.warmup": "campaigns.warmup_s",
    "campaigns.plan": "campaigns.plan_s",
    "campaigns.policy": "campaigns.policy_s",
    "campaigns.store": "campaigns.store_s",
    "campaigns.merge": "campaigns.merge_s",
    "features.extract": "features.extract_s",
    "ml.lls": "ml.lls_s",
    "ml.knn": "ml.knn_s",
    "ml.svr": "ml.svr_s",
}


def _timer_sum(snapshot, name: str) -> float:
    hist = snapshot.hists.get(name)
    return float(hist["sum"]) if hist else 0.0


def _gauge_mean(snapshot, name: str) -> float:
    return snapshot.gauge_mean(name) if name in snapshot.gauges else 0.0


def layer_metrics(passed: PassResult) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (see README.md for the map).

    ``faultinjection.kernel_s`` is busy time summed over processes: the
    in-process kernel spans plus, on a parallel run, the workers'
    ``executor.shard_seconds``.  The rest of the campaign span's self time
    is the parent waiting on workers: ``campaigns.dispatch_wait_s`` is that
    wait minus the workers' busy time per worker.
    """
    recorder = passed.recorder
    selfs = recorder.self_seconds
    snapshot = passed.registry.snapshot()
    metrics = {metric: selfs.get(layer, 0.0) for layer, metric in SPAN_LAYERS.items()}
    in_process = selfs.get("faultinjection.kernel", 0.0)
    # Serial shards also observe shard_seconds, in this process's registry;
    # their spans already count them, so only worker time remains.
    serial_shards = sum(
        s["end"] - s["start"]
        for s in recorder.spans
        if s["name"] == "faultinjection.kernel"
    )
    worker_busy = max(0.0, _timer_sum(snapshot, "executor.shard_seconds") - serial_shards)
    waiting = selfs.get("campaigns.run", 0.0)
    metrics["faultinjection.kernel_s"] = in_process + worker_busy
    metrics["campaigns.dispatch_wait_s"] = max(
        0.0, waiting - worker_busy / passed.workers
    )
    metrics["layers.unaccounted_s"] = passed.wall_s - sum(
        seconds for layer, seconds in selfs.items() if layer != "pass"
    )
    report = passed.report
    metrics.update(
        {
            "campaigns.rounds": report.rounds,
            "campaigns.checkpoint_writes": snapshot.counters.get(
                "store.checkpoint_writes", 0
            ),
            "campaigns.worker_utilization": _gauge_mean(
                snapshot, "campaign.worker_utilization"
            ),
            "campaigns.retries": report.retries,
            "faultinjection.forward_runs": passed.n_forward_runs,
            "faultinjection.lane_cycles": passed.lane_cycles,
            "faultinjection.lane_occupancy": _gauge_mean(
                snapshot, "scheduler.lane_occupancy"
            ),
        }
    )
    return metrics


# ------------------------------------------------------------------ checks


def load_expected() -> Dict:
    return json.loads(EXPECTED_FILE.read_text())


def check_pass(workload: Workload, seed: int, passed: PassResult, expected: Dict) -> List[str]:
    """Every way this pass's outputs can be wrong; empty when correct."""
    key = str(input_set(seed))
    record = expected.get(workload.name, {}).get(key)
    if record is None:
        return [f"no recorded outputs for {workload.name} input set {key}"]
    failures = []
    if passed.digest != record["digest"]:
        failures.append("per-flip-flop counter digest differs from the recorded one")
    if passed.injections != record["injections"]:
        failures.append(
            f"{passed.injections} injections, recorded {record['injections']}"
        )
    report = passed.report
    if report.cache_hit or report.base_injections or report.resumed_buckets:
        failures.append("campaign reused stored results")
    if passed.registry.snapshot().counters.get("store.hits"):
        failures.append("result store served a hit")
    if report.quarantined_shards:
        failures.append(f"{len(report.quarantined_shards)} shards quarantined")
    if report.degraded_serial:
        failures.append("engine degraded to serial execution")
    if passed.target_margin is not None and passed.margin_max > passed.target_margin:
        failures.append(
            f"margin_max {passed.margin_max:.4f} above target {passed.target_margin}"
        )
    if workload.table1:
        if not passed.shape_holds:
            failures.append("Table I shape does not hold")
        for model, r2 in passed.r2.items():
            if abs(r2 - record["r2"][model]) > R2_TOLERANCE:
                failures.append(
                    f"R² {model} {r2:.4f}, recorded {record['r2'][model]:.4f}"
                )
    if passed.recorder is not None:
        unaccounted = layer_metrics(passed)["layers.unaccounted_s"]
        if abs(unaccounted) > LAYER_SUM_TOLERANCE * passed.wall_s:
            failures.append(
                f"layers leave {unaccounted:.3f}s of {passed.wall_s:.3f}s wall "
                f"unaccounted (tolerance {LAYER_SUM_TOLERANCE:.0%})"
            )
    return failures


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker ``multiprocessing.shared_memory``
    starts on first use (the warm golden trace); it would otherwise outlive
    the run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
