"""Parallel campaign engine: sharded fault injection with a result store.

The paper's cost model treats the flat fault-injection campaign (~1054
flip-flops x 170 injections) as the expensive asset everything else
amortizes.  This subsystem applies the same "pay once, reuse forever"
philosophy to our own compute:

* :mod:`~repro.campaigns.spec` — a self-contained, hashable description of a
  campaign (circuit, workload, criterion, seeds) that worker processes can
  rebuild from scratch;
* :mod:`~repro.campaigns.partition` — deterministic schedules (the legacy
  serial draw order and a prefix-stable stream schedule) bucketed by
  injection time slot, and two balanced shard partitioners (cycle ranges
  for flat campaigns, a spread for the sequential gate shards);
* :mod:`~repro.campaigns.store` — a content-addressed JSON result store with
  snapshot reuse, incremental top-up and mid-run checkpoints;
* :mod:`~repro.campaigns.policy` — sampling policies: the paper's flat
  protocol and a sequential-Wilson mode with per-flip-flop early stopping
  and budget reallocation;
* :mod:`~repro.campaigns.executor` — the engine: runs shards across worker
  processes (serial fallback included) and merges per-flip-flop results
  bit-exactly;
* :mod:`~repro.campaigns.supervisor` — the fault-tolerant dispatcher under
  the engine: shard deadlines, bounded retry with backoff, dead-worker
  detection and pool rebuild, poison-shard quarantine, and graceful
  degradation to serial execution;
* :mod:`~repro.campaigns.warmstart` — the process-lifetime warm-start
  cache: one resident context and shard runner per campaign family, which
  fork-start workers (and pool rebuilds) inherit instead of re-deriving,
  and the packed shard-tally transport.
"""

from .executor import CampaignEngine, EngineReport, RetryPolicy
from .partition import (
    Bucket,
    cycle_range_shards,
    legacy_buckets,
    partition_shards,
    stream_buckets,
    stream_buckets_ranged,
)
from .policy import (
    DEFAULT_TARGET_MARGIN,
    SAMPLING_POLICIES,
    FlatPolicy,
    SamplingPolicy,
    SequentialWilsonPolicy,
    ShardGate,
    make_policy,
    policy_signature,
)
from .spec import CampaignContext, CampaignSpec, build_context
from .store import CampaignStore
from .supervisor import QuarantinedShard, ShardOutcome, SupervisedPool
from .warmstart import release_warm_cache, warm_context

__all__ = [
    "Bucket",
    "CampaignContext",
    "CampaignEngine",
    "CampaignSpec",
    "CampaignStore",
    "DEFAULT_TARGET_MARGIN",
    "EngineReport",
    "FlatPolicy",
    "QuarantinedShard",
    "RetryPolicy",
    "SAMPLING_POLICIES",
    "SamplingPolicy",
    "SequentialWilsonPolicy",
    "ShardGate",
    "ShardOutcome",
    "SupervisedPool",
    "build_context",
    "cycle_range_shards",
    "legacy_buckets",
    "make_policy",
    "partition_shards",
    "policy_signature",
    "release_warm_cache",
    "stream_buckets",
    "stream_buckets_ranged",
    "warm_context",
]
