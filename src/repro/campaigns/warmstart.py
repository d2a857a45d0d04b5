"""Process-lifetime warm-start cache: resident contexts, kernels and traces.

Before this layer, every worker process — and every supervisor pool rebuild,
and every ``maxtasksperchild`` recycle — re-derived the complete execution
environment from the picklable spec: synthesize the netlist, compile the
workload schedule, record the golden trace, code-generate the simulation
kernels.  At xgmac scale that is a second or two of pure redundancy per
worker; at the generated 10k–100k-FF composites it is tens of seconds,
dwarfing the shard work itself.

The fix exploits the fork start method the engine already prefers: build
everything **once in the parent**, keep it in a module-level cache, and let
forked workers inherit it.  Three pieces:

* :func:`warm_context` — one :class:`~repro.campaigns.spec.CampaignContext`
  (netlist + workload + golden trace) per campaign *family*
  (:meth:`CampaignSpec.family_key`), shared by every budget and policy of
  that family;
* :func:`ensure_runner` / :func:`resolve_runner` — one fully built shard
  runner (injector + generated kernels) per family.  The parent calls
  :func:`ensure_runner` before creating a worker pool; ``_worker_init``
  calls :func:`resolve_runner` and only falls back to a cold
  ``build_context`` when the inherited cache has no entry (spawn platforms,
  standalone workers);
* :class:`SharedPackedRows` — the golden trace's big row lists (packed
  flip-flop states, outputs, applied inputs) re-homed into
  ``multiprocessing.shared_memory`` segments.  Fork inheritance alone
  already shares the pages copy-on-write, but CPython reference counting
  dirties every object header it touches, so a plain list of big ints
  slowly gets *copied* into every worker.  A shared-memory block has no
  per-row Python objects: readers reconstruct ints on access, the pages
  stay physically shared across any number of workers and rebuilds, and
  the payload is never pickled.

Lifecycle: segments are **owned by the creating process** — only it may
unlink them.  Worker processes (forked children) inherit the cache and the
mapped segments but their PID differs, so the ``atexit`` hook and
:func:`release_warm_cache` are no-ops there; a chaos ``os._exit`` kill
cannot unlink (or leak) anything because the name was never the child's to
remove.  The parent unlinks every segment at interpreter exit (or earlier
via :func:`release_warm_cache`), so ``/dev/shm`` is left clean after normal
exits, exception exits and kill-ridden chaos trials alike — asserted by
``tests/test_warmstart.py`` and ``tests/test_chaos.py``.

The module also provides the packed shard-tally transport
(:func:`pack_tallies` / :func:`unpack_tallies`): workers return per-flip-flop
counters as two small NumPy blocks (int32 indices, int64 ``[n, k, latency]``
rows) instead of a ``{name: [n, k, lat]}`` dict, shrinking result pickles by
roughly the sum of all flip-flop name strings on wide circuits.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_telemetry
from ..sim.testbench import GoldenTrace
from .spec import CampaignContext, CampaignSpec, build_context

__all__ = [
    "SharedPackedRows",
    "active_segment_names",
    "ensure_runner",
    "pack_tallies",
    "release_warm_cache",
    "resolve_runner",
    "share_golden_trace",
    "unpack_tallies",
    "validate_packed_tally",
    "warm_context",
    "warm_stats",
]

_WORD_BYTES = 8


# ------------------------------------------------------- shared-memory rows


class SharedPackedRows(Sequence):
    """Read-only sequence of packed big-int rows in a shared-memory segment.

    Drop-in replacement for the golden trace's ``List[int]`` fields: rows
    are stored as little-endian 64-bit words in a ``(n_rows, n_words)``
    block and reconstructed to arbitrary-precision ints on ``__getitem__``.
    Hot readers (the injector, the scheduler) touch a handful of rows
    per simulated cycle, so reconstruction cost is noise next to the gate
    evaluation work — while the backing pages are physically shared by
    every forked worker with zero pickling and zero copy-on-write drift.

    Only the creating process may :meth:`unlink` the segment (enforced via
    the recorded owner PID); forked children inherit a mapped view they can
    read but never tear down, which is exactly the lifecycle a chaos
    ``os._exit`` kill requires.  Pickling degrades to a plain list of ints,
    so any code path that does serialize a trace stays correct.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, n_rows: int, n_words: int, owner_pid: int
    ) -> None:
        self._shm = shm
        self._n_rows = n_rows
        self._n_words = n_words
        self._owner_pid = owner_pid
        self._arr = np.ndarray((n_rows, max(1, n_words)), dtype="<u8", buffer=shm.buf)

    @classmethod
    def pack(cls, rows: Sequence[int]) -> "SharedPackedRows":
        """Copy *rows* (non-negative packed ints) into a fresh segment."""
        n_rows = len(rows)
        n_words = 1
        for row in rows:
            n_words = max(n_words, (row.bit_length() + 63) // 64)
        size = max(_WORD_BYTES, n_rows * n_words * _WORD_BYTES)
        name = f"reprowarm_{os.getpid()}_{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        view = cls(shm, n_rows, n_words, owner_pid=os.getpid())
        row_bytes = n_words * _WORD_BYTES
        for i, row in enumerate(rows):
            view._arr[i] = np.frombuffer(row.to_bytes(row_bytes, "little"), dtype="<u8")
        return view

    @property
    def segment_name(self) -> str:
        return self._shm.name

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n_rows))]
        if index < 0:
            index += self._n_rows
        if not 0 <= index < self._n_rows:
            raise IndexError("row index out of range")
        return int.from_bytes(self._arr[index].tobytes(), "little")

    def __iter__(self) -> Iterator[int]:
        data = self._arr.tobytes()
        row_bytes = self._arr.shape[1] * _WORD_BYTES
        for i in range(self._n_rows):
            yield int.from_bytes(data[i * row_bytes : (i + 1) * row_bytes], "little")

    def to_list(self) -> List[int]:
        return list(self)

    def __reduce__(self):
        # Serialization deflates to a plain list: spawn-start platforms and
        # any stray pickling of a shared trace stay correct, just unshared.
        return (list, (self.to_list(),))

    def unlink(self) -> None:
        """Tear the segment down — creator only; no-op in forked children."""
        if os.getpid() != self._owner_pid:
            return
        self._arr = None  # release the exported buffer so close() can unmap
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a reader still holds a row view
            pass
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def share_golden_trace(golden: GoldenTrace) -> List[SharedPackedRows]:
    """Re-home *golden*'s row lists into shared memory, in place.

    Returns the created segments (for lifecycle tracking).  When the trace
    is already shared, or the platform refuses a segment, the trace is left
    as-is and no segments are returned — sharing is an optimization, never
    a correctness requirement.
    """
    if isinstance(golden.ff_state, SharedPackedRows):
        return []
    try:
        segments = [
            SharedPackedRows.pack(golden.ff_state),
            SharedPackedRows.pack(golden.outputs),
            SharedPackedRows.pack(golden.applied_inputs),
        ]
    except OSError:  # pragma: no cover - platform without shared memory
        return []
    golden.ff_state, golden.outputs, golden.applied_inputs = segments
    return segments


# ----------------------------------------------------------- the warm cache


@dataclass
class _WarmFamily:
    """Everything one campaign family keeps resident for the process."""

    context: CampaignContext
    segments: List[SharedPackedRows] = field(default_factory=list)
    build_seconds: float = 0.0
    #: The fully built shard runner (``None`` until :func:`ensure_runner`).
    runner: Optional[object] = None


_FAMILIES: Dict[str, _WarmFamily] = {}
_STATS = {"hits": 0, "misses": 0}
_OWNER_PID = os.getpid()


def warm_context(
    spec: CampaignSpec, context: Optional[CampaignContext] = None
) -> Tuple[CampaignContext, bool]:
    """The process-wide warm context for *spec*'s family.

    Returns ``(context, hit)``.  On a miss the context is built (or adopted
    from *context*, fixing the historical double build when a caller passed
    one in), its golden trace recorded and re-homed into shared memory, and
    the family cached for every later engine, serial runner and forked
    worker in this process.
    """
    key = spec.family_key()
    family = _FAMILIES.get(key)
    if family is not None:
        return family.context, True
    start = time.perf_counter()
    if context is None:
        context = build_context(spec)
    context.ensure_golden()
    segments = share_golden_trace(context.golden)
    _FAMILIES[key] = _WarmFamily(
        context=context,
        segments=segments,
        build_seconds=time.perf_counter() - start,
    )
    return context, False


def ensure_runner(
    spec: CampaignSpec,
    factory: Callable[[CampaignSpec, CampaignContext], object],
    context: Optional[CampaignContext] = None,
) -> Tuple[object, bool, float]:
    """Parent-side warm-up: the resident shard runner for *spec*.

    Returns ``(runner, hit, warmup_seconds)`` and counts the outcome in the
    ``warmstart.{hits,misses}`` telemetry counters.  *factory* builds the
    runner on a miss (injected by the executor — the runner type lives
    there); *context* seeds the family context when the family itself is
    cold.  Workers forked after this call resolve the same runner via
    :func:`resolve_runner` instead of rebuilding, and pool rebuilds re-fork
    from the still-warm parent.
    """
    registry = get_telemetry().registry
    key = spec.family_key()
    family = _FAMILIES.get(key)
    if family is not None and family.runner is not None:
        _STATS["hits"] += 1
        registry.counter("warmstart.hits").inc()
        return family.runner, True, 0.0
    start = time.perf_counter()
    ctx, _ctx_hit = warm_context(spec, context)
    runner = factory(spec, ctx)
    _FAMILIES[key].runner = runner
    warmup = time.perf_counter() - start
    _STATS["misses"] += 1
    registry.counter("warmstart.misses").inc()
    return runner, False, warmup


def resolve_runner(spec: CampaignSpec) -> Optional[object]:
    """Worker-side lookup: the fork-inherited runner for *spec*, if any.

    Never builds anything — a ``None`` means this process did not inherit a
    warm cache (spawn start method, or a standalone worker) and the caller
    must cold-build from the spec.
    """
    family = _FAMILIES.get(spec.family_key())
    if family is None:
        return None
    return family.runner


def warm_stats() -> Dict[str, int]:
    """Process-lifetime hit/miss counters (parent-side ensure calls)."""
    return dict(_STATS)


def active_segment_names() -> List[str]:
    """Names of every live shared-memory segment owned by this process."""
    return [
        seg.segment_name
        for family in _FAMILIES.values()
        for seg in family.segments
    ]


def release_warm_cache() -> None:
    """Drop every cached family and unlink its segments (creator only).

    Safe to call from forked children (a no-op there — the segments belong
    to the parent); the test suite calls it between lifecycle assertions
    and an ``atexit`` hook calls it on interpreter shutdown so normal and
    exception exits both leave ``/dev/shm`` clean.
    """
    if os.getpid() == _OWNER_PID:
        for family in _FAMILIES.values():
            for seg in family.segments:
                seg.unlink()
    _FAMILIES.clear()
    _STATS["hits"] = 0
    _STATS["misses"] = 0


atexit.register(release_warm_cache)


# ------------------------------------------------------ packed shard tallies


def pack_tallies(
    ff: Dict[str, List[int]], ff_index: Callable[[str], int]
) -> Dict[str, object]:
    """Encode per-flip-flop ``[n, k, latency]`` counters as NumPy blocks.

    The wire format is ``{"n": count, "idx": int32-bytes, "counts":
    int64-bytes}`` — two dense arrays instead of one dict entry (name
    string, list, three boxed ints) per flip-flop.  Decoding needs the
    netlist's canonical flip-flop order, which only the parent holds; see
    :func:`unpack_tallies`.
    """
    n = len(ff)
    idx = np.empty(n, dtype="<i4")
    counts = np.empty((n, 3), dtype="<i8")
    for j, (name, rec) in enumerate(ff.items()):
        idx[j] = ff_index(name)
        counts[j] = rec
    return {"n": n, "idx": idx.tobytes(), "counts": counts.tobytes()}


def validate_packed_tally(block: object) -> Optional[str]:
    """Shape-check a packed tally block; returns an error string or None."""
    if not isinstance(block, dict):
        return f"expected packed tally dict, got {type(block).__name__}"
    n = block.get("n")
    if not isinstance(n, int) or n < 0:
        return "packed tally has no valid row count"
    idx = block.get("idx")
    counts = block.get("counts")
    if not isinstance(idx, bytes) or len(idx) != n * 4:
        return "packed tally 'idx' block has the wrong size"
    if not isinstance(counts, bytes) or len(counts) != n * 24:
        return "packed tally 'counts' block has the wrong size"
    return None


def unpack_tallies(
    block: Dict[str, object], ff_order: Sequence[str]
) -> Dict[str, List[int]]:
    """Decode :func:`pack_tallies` output back to the ``{name: [n, k, lat]}``
    map the accumulator, store documents and checkpoints are built from."""
    n = int(block["n"])  # type: ignore[arg-type]
    idx = np.frombuffer(block["idx"], dtype="<i4")  # type: ignore[arg-type]
    counts = np.frombuffer(block["counts"], dtype="<i8").reshape(n, 3)  # type: ignore[arg-type]
    out: Dict[str, List[int]] = {}
    for j in range(n):
        out[ff_order[int(idx[j])]] = [
            int(counts[j, 0]),
            int(counts[j, 1]),
            int(counts[j, 2]),
        ]
    return out
