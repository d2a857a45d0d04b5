"""Benchmark-side tracing: spans around the calls into each layer.

The program's own tracer covers only its pipeline phases, so the benchmark
times each layer from outside.  During a traced pass, :func:`instrument`
swaps the entry points of each layer for wrappers that record one span per
call (name, start, end, parent) in a :class:`SpanRecorder`, then restores
the originals.  Spans stay in memory and are written out when the run ends.

A layer's *self time* is the time its spans cover minus the part covered by
their child spans.  Two per-injection hooks (the sampling policy's shard gate)
are too hot for one span per call; they are timed as *leaves*: their time is
added to the layer and subtracted from the enclosing span, without a record.

Worker processes of a parallel campaign inherit the wrappers through
``fork``, but a recorder only records in the process that created it; worker
time comes from the program's own ``executor.shard_seconds`` timer instead.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.campaigns import executor, policy, spec, store, warmstart
from repro.experiments import table1
from repro.obs.metrics import MetricsRegistry

__all__ = ["SpanRecorder", "instrument", "NULL_RECORDER"]


class SpanRecorder:
    """In-memory spans plus per-layer self times for one traced pass."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[Dict] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        # Open spans, innermost last: [span id, seconds covered by children].
        self._open: List[List] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if os.getpid() != self._pid:
            yield
            return
        frame = [len(self.spans), 0.0]
        record = {
            "id": frame[0],
            "name": name,
            "parent": self._open[-1][0] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"] = start - self.t0
            record["end"] = end - self.t0
            self.self_seconds[name] += (end - start) - frame[1]
            if self._open:
                self._open[-1][1] += end - start

    def leaf(self, name: str, seconds: float) -> None:
        if os.getpid() != self._pid:
            return
        self.self_seconds[name] += seconds
        if self._open:
            self._open[-1][1] += seconds


class _NullRecorder:
    """Stand-in for untraced passes: spans cost one context-manager call."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_RECORDER = _NullRecorder()


def _wrap_span(recorder: SpanRecorder, fn: Callable, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(layer):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_leaf(recorder: SpanRecorder, fn: Callable, layer: str) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leaf(layer, clock() - start)

    return wrapper


_ML_LAYERS = {
    "LinearLeastSquares": "ml.lls",
    "KNeighborsRegressor": "ml.knn",
    "SVR": "ml.svr",
}


def _wrap_cross_validate(recorder: SpanRecorder, fn: Callable) -> Callable:
    """One span per Table I model, named after the model's final estimator."""

    @functools.wraps(fn)
    def wrapper(estimator, *args, **kwargs):
        final = estimator.steps[-1][1] if hasattr(estimator, "steps") else estimator
        layer = _ML_LAYERS[type(final).__name__]
        with recorder.span(layer):
            return fn(estimator, *args, **kwargs)

    return wrapper


_STORE_METHODS = (
    "load_exact",
    "best_snapshot",
    "save_snapshot",
    "load_partial",
    "save_partial",
    "clear_partial",
    "load_policy_snapshot",
    "save_policy_snapshot",
    "load_policy_partial",
    "save_policy_partial",
)

#: (owner, attribute, layer) for every call wrapped in a span.  Module-level
#: functions are patched in the namespace of the module that *calls* them.
_SPAN_TARGETS = (
    [
        (warmstart, "build_context", "circuits.synth"),
        (spec.CampaignContext, "ensure_golden", "sim.golden"),
        (executor, "legacy_buckets", "campaigns.plan"),
        (executor, "stream_buckets", "campaigns.plan"),
        (executor, "stream_buckets_ranged", "campaigns.plan"),
        (executor, "partition_shards", "campaigns.plan"),
        (executor, "make_policy", "campaigns.policy"),
        (executor, "policy_signature", "campaigns.policy"),
        (executor, "realized_margins", "campaigns.policy"),
        (policy.SequentialWilsonPolicy, "allocate", "campaigns.policy"),
        (policy.FlatPolicy, "allocate", "campaigns.policy"),
        (executor._Accumulator, "merge_shard", "campaigns.merge"),
        (warmstart, "unpack_tallies", "campaigns.merge"),
        (MetricsRegistry, "absorb", "campaigns.merge"),
        (executor._ShardRunner, "run_shard", "faultinjection.kernel"),
    ]
    + [(store.CampaignStore, name, "campaigns.store") for name in _STORE_METHODS]
)

#: Per-injection hooks, timed as leaves.
_LEAF_TARGETS = (
    (policy.ShardGate, "admit", "campaigns.policy"),
    (policy.ShardGate, "record", "campaigns.policy"),
)


@contextmanager
def instrument(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block.

    ``None`` instruments nothing (the untraced pass).
    """
    if recorder is None:
        yield
        return
    saved = []
    try:
        for owner, attr, layer in _SPAN_TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap_span(recorder, original, layer))
        for owner, attr, layer in _LEAF_TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap_leaf(recorder, original, layer))
        original = table1.cross_validate
        saved.append((table1, "cross_validate", original))
        table1.cross_validate = _wrap_cross_validate(recorder, original)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
