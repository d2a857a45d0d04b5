"""Campaign work partitioning: schedules, time-slot buckets, shards.

The unit of work is a :class:`Bucket` — all injections sharing one time
slot, simulated together as bit-parallel lanes of a single forward run.
Because every lane of a batch is computed independently (the simulator is
exact per lane and a converged lane can never fail later), per-flip-flop
outcomes do not depend on which process runs which bucket; only the
*schedule* (which flip-flop is struck at which cycle, in which lane order)
matters for bit-exactness.  Both schedules here are therefore computed
centrally and deterministically; the shard partitioners merely distribute
whole buckets across workers.  Two partitioners are provided:

* :func:`cycle_range_shards` — contiguous cycle ranges with balanced lane
  counts, the flat campaign's shards (a serial run without an explicit
  ``shards_per_job`` cuts one): each shard's scheduler run sweeps only its
  own range plus the tail its last lanes need;
* :func:`partition_shards` — a longest-processing-time spread, the
  sequential policy's *gate* partition, whose counters depend on it.

Two schedules are provided:

``legacy``
    The paper-protocol draw, :func:`legacy_draws`: a seeded pool of time
    slots, then one sample of *n* pool slots per flip-flop, bucketed by
    time slot.  Every shard layout merges to the same counters
    (``tests/test_campaigns.py`` pins them).

``stream``
    A prefix-stable variant: injection draw *j* of a flip-flop depends only
    on *j* and the campaign seed, never on the total budget.  Draw *j* is
    sampled without replacement from the first ``ceil(1.5 * (j + 1))``
    entries of a seeded permutation of the active window, which keeps the
    draws of all flip-flops concentrated on the same ~1.5 n time slots (the
    ``legacy`` pool's density) while allowing a cached *n*-injection
    campaign to be topped up to *m > n* injections by simulating only draws
    ``n .. m-1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .spec import CampaignSpec

__all__ = [
    "Bucket",
    "DrawStream",
    "legacy_draws",
    "legacy_buckets",
    "stream_buckets",
    "stream_buckets_ranged",
    "cycle_range_shards",
    "partition_shards",
]


@dataclass(frozen=True)
class Bucket:
    """All injections of one time slot: ``lanes[j]`` is the flip-flop struck
    in bit-parallel lane *j* of the forward run at ``cycle``."""

    cycle: int
    lanes: Tuple[str, ...]

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)


def _to_buckets(table: Dict[int, List[str]]) -> List[Bucket]:
    return [Bucket(cycle, tuple(table[cycle])) for cycle in sorted(table)]


# ------------------------------------------------------------ legacy draws


def legacy_draws(
    window: Sequence[int],
    ff_names: Sequence[str],
    n_injections: int,
    seed: int,
    n_time_slots: Optional[int] = None,
) -> Dict[int, List[str]]:
    """The ``legacy`` schedule: every flip-flop's injection cycles.

    Consumes ``random.Random(seed)`` in one fixed order: a pool of
    *n_time_slots* distinct cycles of *window* (default ``min(len(window),
    1.5 n)``), then one sample of *n_injections* pool slots per flip-flop,
    in *ff_names* order.  Returns ``{cycle: [ff, ...]}``, each list in draw
    order (the lane order of that cycle's bucket).
    """
    window = list(window)
    if n_time_slots is None:
        n_time_slots = min(len(window), max(n_injections, int(1.5 * n_injections)))
    if n_time_slots < n_injections:
        raise ValueError(
            f"need at least {n_injections} time slots in the active window, "
            f"got {n_time_slots}"
        )
    if n_time_slots > len(window):
        raise ValueError(
            f"n_time_slots={n_time_slots} exceeds the {len(window)} cycles of "
            f"the active window"
        )
    rng = random.Random(seed)
    slots = sorted(rng.sample(window, n_time_slots))
    table: Dict[int, List[str]] = {}
    for name in ff_names:
        for cycle in rng.sample(slots, n_injections):
            table.setdefault(cycle, []).append(name)
    return table


def legacy_buckets(
    spec: CampaignSpec, window: Sequence[int], ff_names: Sequence[str]
) -> List[Bucket]:
    """The ``legacy`` schedule, bucketed by time slot (lane order within
    each bucket included): :func:`legacy_draws` for *spec*."""
    return _to_buckets(
        legacy_draws(window, ff_names, spec.n_injections, spec.seed, spec.n_time_slots)
    )


# ------------------------------------------------------------ stream draws


def _pool_size(draw: int, window_len: int) -> int:
    """Slot-pool size available to draw *draw* (0-based): ceil(1.5 (draw+1)),
    capped by the window."""
    k = draw + 1
    return min(window_len, k + (k + 1) // 2)


class DrawStream:
    """One flip-flop's prefix-stable draw stream, extended on demand.

    Samples without replacement from a growing prefix of ``slot_stream``
    and keeps the sampler state between calls, so asking for a longer
    prefix continues where the last call stopped instead of redrawing from
    draw 0.  Draw *j* is the same however the stream is extended.
    """

    def __init__(self, slot_stream: Sequence[int], rng: random.Random) -> None:
        self._slot_stream = slot_stream
        self._rng = rng
        self._candidates: List[int] = []
        self._consumed = 0
        self._draws: List[int] = []

    def draws(self, start: int, stop: int) -> List[int]:
        """Injection cycles of draws ``start .. stop-1``."""
        slot_stream = self._slot_stream
        if stop > len(slot_stream):
            raise ValueError(
                f"active window has only {len(slot_stream)} cycles; cannot draw "
                f"{stop} injections without replacement"
            )
        draws = self._draws
        candidates = self._candidates
        rng = self._rng
        for j in range(len(draws), stop):
            grow = _pool_size(j, len(slot_stream))
            if grow > self._consumed:
                candidates.extend(slot_stream[self._consumed:grow])
                self._consumed = grow
            pick = rng.randrange(len(candidates))
            draws.append(candidates[pick])
            candidates[pick] = candidates[-1]
            candidates.pop()
        return draws[start:stop]


def stream_slot_order(spec: CampaignSpec, window: Sequence[int]) -> List[int]:
    """The campaign family's seeded slot permutation of the active window."""
    stream = list(window)
    random.Random(f"slots:{spec.seed}").shuffle(stream)
    return stream


def stream_buckets(
    spec: CampaignSpec,
    window: Sequence[int],
    ff_names: Sequence[str],
    start: int = 0,
    stop: Optional[int] = None,
) -> List[Bucket]:
    """Buckets for stream-schedule draws ``start .. stop-1`` of every flip-flop.

    ``start > 0`` plans an incremental top-up: only the delta beyond an
    already-cached ``start``-injection snapshot is scheduled.
    """
    if stop is None:
        stop = spec.n_injections
    return stream_buckets_ranged(
        spec, window, {name: (start, stop) for name in ff_names}
    )


def stream_buckets_ranged(
    spec: CampaignSpec,
    window: Sequence[int],
    ranges: Dict[str, Tuple[int, int]],
    streams: Optional[Dict[str, DrawStream]] = None,
) -> List[Bucket]:
    """Buckets for per-flip-flop draw ranges ``{ff: (start, stop)}``.

    The generalization a :class:`~repro.campaigns.policy.SamplingPolicy`
    round needs: each flip-flop advances its own prefix-stable draw stream
    independently, so an adaptive allocation (different starts and stops
    per flip-flop) still replays exactly the cycles a flat campaign would
    have drawn for the same indices.

    *streams* memoizes each flip-flop's :class:`DrawStream` across calls
    for the same *spec* and *window* (the rounds of one policy run), so a
    round extends the streams instead of redrawing them from draw 0.  The
    buckets are the same with or without it.
    """
    if streams is None:
        streams = {}
    slot_stream: Optional[List[int]] = None
    table: Dict[int, List[str]] = {}
    for name, (start, stop) in ranges.items():
        if not 0 <= start <= stop:
            raise ValueError(f"invalid draw range [{start}, {stop}) for {name!r}")
        stream = streams.get(name)
        if stream is None:
            if slot_stream is None:
                slot_stream = stream_slot_order(spec, window)
            stream = DrawStream(slot_stream, random.Random(f"ff:{spec.seed}:{name}"))
            streams[name] = stream
        for cycle in stream.draws(start, stop):
            table.setdefault(cycle, []).append(name)
    return _to_buckets(table)


# ------------------------------------------------------------- sharding


def cycle_range_shards(
    buckets: Sequence[Bucket], n_shards: int
) -> List[List[Bucket]]:
    """Cut buckets into at most *n_shards* contiguous cycle ranges.

    Walks the buckets in cycle order and closes shard *k* at the first
    bucket that brings the running lane count to *k*/*n_shards* of the
    total, so the shards carry balanced lane counts.  A shard's scheduler
    run then sweeps only its own range plus the tail its last lanes need,
    where spread shards would each sweep the whole window.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    ordered = sorted(buckets, key=lambda b: b.cycle)
    total = sum(bucket.n_lanes for bucket in ordered)
    shards: List[List[Bucket]] = []
    current: List[Bucket] = []
    load = 0
    for bucket in ordered:
        current.append(bucket)
        load += bucket.n_lanes
        if load * n_shards >= (len(shards) + 1) * total:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


def partition_shards(buckets: Sequence[Bucket], n_shards: int) -> List[List[Bucket]]:
    """Split buckets into at most *n_shards* balanced, independent shards.

    Deterministic longest-processing-time greedy on lane counts (a bucket's
    simulation cost is roughly proportional to its lanes); within each shard
    buckets stay sorted by cycle, the order the scheduler consumes them in.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    n_shards = min(n_shards, len(buckets)) or 1
    loads = [0] * n_shards
    shards: List[List[Bucket]] = [[] for _ in range(n_shards)]
    for bucket in sorted(buckets, key=lambda b: (-b.n_lanes, b.cycle)):
        target = min(range(n_shards), key=lambda i: (loads[i], i))
        shards[target].append(bucket)
        loads[target] += bucket.n_lanes
    for shard in shards:
        shard.sort(key=lambda b: b.cycle)
    return [shard for shard in shards if shard]
