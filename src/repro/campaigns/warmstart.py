"""Process-lifetime warm-start cache: resident contexts and shard runners.

Before this layer, every worker process — and every supervisor pool rebuild,
and every ``maxtasksperchild`` recycle — re-derived the complete execution
environment from the picklable spec: synthesize the netlist, compile the
workload schedule, record the golden trace, code-generate the simulation
kernels.  At xgmac scale that is a second or two of pure redundancy per
worker; at the generated 10k–100k-FF composites it is tens of seconds,
dwarfing the shard work itself.

The fix exploits the fork start method the engine already prefers: build
everything **once in the parent**, keep it in a module-level map from
campaign *family* (:meth:`CampaignSpec.family_key`) to its context and
runner, and let forked workers inherit it.

* :func:`warm_context` — one :class:`~repro.campaigns.spec.CampaignContext`
  (netlist + workload + golden trace) per family, shared by every budget
  and policy of that family;
* :func:`ensure_runner` / :func:`resolve_runner` — one fully built shard
  runner (injector + generated kernels) per family.  The parent calls
  :func:`ensure_runner` before creating a worker pool; ``_worker_init``
  calls :func:`resolve_runner` and only falls back to a cold
  ``build_context`` when the inherited cache has no entry (spawn platforms,
  standalone workers).

The golden trace stays plain ``List[int]`` rows: the whole ``xgmac`` trace
is about 170 KB, so copy-on-write drift of those pages in a forked worker
is noise next to the worker itself.

The module also provides the packed shard-tally transport
(:func:`pack_tallies` / :func:`unpack_tallies`): workers return per-flip-flop
counters as two small NumPy blocks (int32 indices, int64 ``[n, k, latency]``
rows) instead of a ``{name: [n, k, lat]}`` dict, shrinking result pickles by
roughly the sum of all flip-flop name strings on wide circuits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_telemetry
from .spec import CampaignContext, CampaignSpec, build_context, check_context

__all__ = [
    "ensure_runner",
    "pack_tallies",
    "release_warm_cache",
    "resolve_runner",
    "unpack_tallies",
    "validate_packed_tally",
    "warm_context",
]


# ----------------------------------------------------------- the warm cache


@dataclass
class _WarmFamily:
    """Everything one campaign family keeps resident for the process."""

    context: CampaignContext
    #: The fully built shard runner (``None`` until :func:`ensure_runner`).
    runner: Optional[object] = None


_FAMILIES: Dict[str, _WarmFamily] = {}


def warm_context(
    spec: CampaignSpec, context: Optional[CampaignContext] = None
) -> Tuple[CampaignContext, bool]:
    """The process-wide warm context for *spec*'s family.

    Returns ``(context, hit)``.  On a miss the context is built (or adopted
    from *context*, fixing the historical double build when a caller passed
    one in), its golden trace recorded, and the family cached for every
    later engine, serial runner and forked worker in this process.  An
    adopted context must match the spec (:func:`check_context`): a foreign
    workload would otherwise serve every later run of the family.
    """
    key = spec.family_key()
    family = _FAMILIES.get(key)
    if family is not None:
        return family.context, True
    if context is None:
        context = build_context(spec)
    else:
        check_context(spec, context)
    context.ensure_golden()
    _FAMILIES[key] = _WarmFamily(context)
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
    runner = resolve_runner(spec)
    if runner is not None:
        registry.counter("warmstart.hits").inc()
        return runner, True, 0.0
    start = time.perf_counter()
    ctx, _ctx_hit = warm_context(spec, context)
    runner = factory(spec, ctx)
    _FAMILIES[spec.family_key()].runner = runner
    registry.counter("warmstart.misses").inc()
    return runner, False, time.perf_counter() - start


def resolve_runner(spec: CampaignSpec) -> Optional[object]:
    """Worker-side lookup: the fork-inherited runner for *spec*, if any.

    Never builds anything — a ``None`` means this process did not inherit a
    warm cache (spawn start method, or a standalone worker) and the caller
    must cold-build from the spec.
    """
    family = _FAMILIES.get(spec.family_key())
    return None if family is None else family.runner


def release_warm_cache() -> None:
    """Drop every cached family, so the next campaign starts cold."""
    _FAMILIES.clear()


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


def validate_packed_tally(block: object, tallied: np.ndarray) -> Optional[str]:
    """Check a packed tally block against the canonical flip-flop order.

    *tallied* holds one bool per flip-flop of the order, true where the
    campaign measures it.  Returns an error string or None.  Besides the
    block sizes, every row index must name a distinct measured flip-flop:
    a negative index would otherwise decode onto the end of the order, and
    one past the end or naming an unmeasured flip-flop fail while merging,
    outside the supervisor's retry.
    """
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
    rows = np.frombuffer(idx, dtype="<i4")
    if n and (rows.min() < 0 or rows.max() >= len(tallied)):
        return f"packed tally 'idx' outside 0..{len(tallied) - 1}"
    if len(np.unique(rows)) != n:
        return "packed tally 'idx' repeats a flip-flop"
    if not tallied[rows].all():
        return "packed tally names a flip-flop the campaign does not measure"
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
