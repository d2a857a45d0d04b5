"""Adaptive injection scheduling: mixed-cycle batching, lane refill, elastic width.

:meth:`~repro.faultinjection.injector.FaultInjector.run_batch` pins a whole
batch to one injection cycle and keeps every lane slot occupied until the
*last* lane retires, so most of a campaign's simulated lane-cycles are spent
on lanes that have already failed or re-converged — and the campaign tail
runs nearly-empty batches.  :class:`AdaptiveScheduler` replaces the
per-cycle batches with one long-lived forward simulation per *pass*:

* **mixed-cycle batching** — lanes are activated at their own injection
  cycles: when the simulation reaches a pending injection's cycle, a free
  lane is loaded with the golden flip-flop state (per-lane, via a
  generated loader), the target flip-flop is flipped, and the lane's
  loopback history is seeded from the golden record.  Requests that find
  no free lane roll over to the next pass;
* **lane refill** — retirement checks free lanes, and the pending queue
  refills them at their requests' own cycles;
* **elastic width** — a pass starts :data:`MIN_WIDTH` lanes wide, hands
  out the lowest free lane, and doubles its width only when no lane is
  free, up to the cap ``min(max_lanes, pending)``; requests find no lane
  (and roll over to the next pass) only at that cap.  At a retirement
  check it truncates to its highest live lane once that fits in half the
  width — the one way a pass narrows, so a drained pass shrinks as its
  high lanes retire.  Every big-int operation costs by the allocated
  width, and live lanes are usually a small fraction of the cap;
* **observed-cone settle** — every simulated cycle evaluates only the
  combinational fan-in of the criterion nets, the loopback tap sources and
  the D/RN pins of the relevant flip-flops.  That fan-in reads no Q row
  outside the relevant set, so those rows are dead in a scheduled pass:
  the activation loader writes, and the clock edge latches, only the
  relevant flip-flops, and the other rows hold stale values.  They stay
  live in :meth:`~repro.faultinjection.injector.FaultInjector.run_batch`,
  which loads and latches every flip-flop.  Retirement probes read the
  injector's per-cycle golden-bits table and walk the relevant rows in C.
  The settle is enable-gated: the next-state logic of a register whose
  hold muxes (``D = MUX(Q, new, en)``) only it feeds runs only when its
  enable is set on some lane; otherwise each hold mux's D is a copy of
  its Q (:meth:`~repro.sim.compiled.CompiledSimulator.compile_cone_eval`).

* **request groups** — one pass may carry several independent request
  groups (the gate shards of a sampling round).  Each group keeps exactly
  the pass state it would have running alone: its own lane cap
  ``min(max_lanes, group pending)`` and deferral, and its own retirement
  check grid (started at its first activation, restarted when it
  activates after running empty).  The groups share the simulated cycle,
  the lane batch, the elastic width (capped at the sum of the group caps),
  and truncation.  A window that several groups would each sweep alone
  is swept once.
* **O(width) lane bookkeeping** — a cycle's activations, failures and
  retirements are handled as lane lists: set lanes are listed once
  (:func:`~repro.sim.logic.set_lanes`) and the activation masks built once
  (:func:`~repro.sim.logic.lanes_mask`), so the bookkeeping costs one pass
  over the width per cycle plus O(1) per lane rather than the width per
  lane.  Requests and verdicts live in machine-word arrays.  Both keep a
  wide default cap (:func:`auto_max_lanes`) cheap in time and memory.
* **latent-state lane merging** — at a retirement check, unfailed lanes of
  one request group that differ from golden in the same single relevant
  flip-flop, with golden loopback slots, hold the same state on every net
  a verdict reads, so they have the same future.  The lowest such lane
  survives and the other requests *ride* it: each keeps its own injection
  cycle (a rider fails with latency *t* minus its own cycle when the
  shared lane first fails at *t*), and retires with the survivor at the
  same check.  Lanes with a live forcing plan never merge.
  Group caps, deferral, ``lane_cycles`` and ``early_retired`` count
  requests, riders included, so only the allocated width falls.  A check
  looks for merges only when its due lanes outnumber the relevant
  flip-flops (``AdaptiveScheduler.merge_min_due``).
* **structural verdicts** — a plain-SEU request whose verdict the netlist
  decides gets no lane of its own
  (:attr:`~repro.faultinjection.injector.FaultInjector.release_cycles`):
  one on a flip-flop outside the relevant set retires unfailed at its
  group's next check, and one inside a hold run rides the lane struck at
  the run's end.  Each is admitted and counted at its own cycle, and its
  verdict reaches ``on_verdict`` at the check where its own lane would
  have retired, so caps, deferral, grids, hook order and ``lane_cycles``
  are unchanged; cycles with only such requests live are not simulated.

All of this is scheduling only.  What a simulated cycle is — strike,
loopback seeding, drive, forcing, observation, the row and slot probes,
and the scheduled settle, tick and loader kernels — is the injector's
(:class:`~repro.faultinjection.injector.FaultInjector`), shared with
:meth:`run_batch`; the scheduler owns only the lanes.  Each request still
sees the exact cycle sequence :meth:`run_batch` would give it on every
net a verdict reads, so
per-injection verdicts and error latencies are **bit-identical** to the
naive batches — enforced per fuzz seed by the ``scheduled-vs-naive``
differential mode in :mod:`repro.verify.diff` (with merging on at every
check) and by the property tests in ``tests/test_scheduler.py``.  Lane
indices do not matter: retirement cycles follow the check grid and each
lane's own state, and within one retirement batch no ``admit`` runs
between ``on_verdict`` calls.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..sim.logic import lanes_mask, set_lanes
from .faults import InjectionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .injector import FaultInjector

__all__ = [
    "ScheduledOutcome",
    "SchedulerStats",
    "AdaptiveScheduler",
    "auto_max_lanes",
]

#: Width a pass starts at, and the narrowest it truncates to.  A pass
#: doubles its width only when no lane is free (up to its cap) and
#: truncates to its highest live lane once that fits in half the width:
#: below a few machine words a big-int operation costs the same at any
#: width, so narrower batches would only add resizes.
MIN_WIDTH = 64

#: Bits the simulator's value rows may take at the default lane cap (10 MiB).
#: Wider batches amortize the per-statement interpreter cost over more
#: lanes, but only pay off while the batch stays *full*, which is what
#: refill provides (a naive batch this wide would drain to a few stragglers
#: and waste almost the whole width).  Pass width is always additionally
#: capped by the pending-request count.
LANE_BUDGET_BITS = 10 * 8 * 2**20

#: The default lane cap never drops below this, however many value rows
#: the netlist has.
MIN_AUTO_LANES = 4096


def auto_max_lanes(n_rows: int) -> int:
    """Default lane cap of a simulator with *n_rows* value rows: the widest
    batch whose rows fit :data:`LANE_BUDGET_BITS`, at least
    :data:`MIN_AUTO_LANES` (16,703 on ``xgmac``'s 5,022 rows, the floor on
    ``mesh_10k``'s ~55k)."""
    return max(MIN_AUTO_LANES, LANE_BUDGET_BITS // max(1, n_rows))


def _merge_candidates(
    row_diff: int, multi: int, slot_diff: int, excluded: int, active: int
) -> int:
    """Lanes a check may merge: live lanes, neither failed nor forcing
    (*excluded*), whose one deviation from golden is a single relevant row
    (in *row_diff* but not *multi*) and whose loopback slots are golden
    (not in *slot_diff*).  Two such lanes with the same row hold the same
    state on every net a verdict reads."""
    return row_diff & ~multi & ~slot_diff & ~excluded & active


#: Check-grid value of a group with no live lanes: its grid restarts at
#: its next activation.
_IDLE = 1 << 62


@dataclass
class SchedulerStats:
    """What one :meth:`AdaptiveScheduler.run` actually simulated.

    ``refills`` counts activations that reuse a lane freed earlier in the
    same pass (the lanes early retirement gave back), ``early_retired``
    the requests retired at a divergence probe before the end of the trace
    without having failed (i.e. re-converged to golden),
    ``peak_width`` the widest lane batch any pass allocated and
    ``width_cycles`` the allocated lanes summed over simulated cycles
    (the width actually paid for, as passes grow and truncate).

    ``merged`` counts the requests that gave up their own lane to ride
    another lane holding the same latent state, and ``rider_cycles`` the
    lane-cycles those riders were carried for.  ``lane_cycles`` and
    ``early_retired`` count riders like any other request, so they equal
    an unmerged run's; merging lowers the allocated width
    (``width_cycles``) and changes which lanes get reused (``refills``).

    Requests the netlist answers (structural verdicts,
    :attr:`~repro.faultinjection.injector.FaultInjector.release_cycles`)
    count in ``activations``, ``lane_cycles`` and ``early_retired`` as if
    they had a lane from their own cycle: ``nonrelevant`` counts the
    requests on a flip-flop outside the relevant set, which never get one,
    ``hold_riders`` the requests admitted inside a hold run that ride a
    lane struck at the run's end, and ``parked_cycles`` the lane-cycles
    requests spent without a lane.  ``cycles_simulated`` counts only the
    cycles some lane was simulated in.
    """

    n_injections: int = 0
    n_passes: int = 0
    cycles_simulated: int = 0
    lane_cycles: int = 0
    activations: int = 0
    deferred: int = 0
    refills: int = 0
    early_retired: int = 0
    peak_width: int = 0
    width_cycles: int = 0
    policy_skipped: int = 0
    forced_cycles: int = 0
    merged: int = 0
    rider_cycles: int = 0
    nonrelevant: int = 0
    hold_riders: int = 0
    parked_cycles: int = 0

    def simulated_lane_cycles(self) -> int:
        """Lane-cycles a lane was simulated for with a request of its own:
        ``lane_cycles`` less the riders' and the parked requests'."""
        return self.lane_cycles - self.rider_cycles - self.parked_cycles

    def lane_occupancy(self) -> float:
        """Live lane-cycles as a fraction of the allocated lane-cycles.

        ``simulated_lane_cycles() / width_cycles``: the share of the lane
        slots the passes actually paid for that carried a live injection
        (a naive drained batch decays toward 1/width).  Riders share their
        lane and parked requests have none, so this stays at most 1.  0.0
        when nothing was simulated.
        """
        if not self.width_cycles:
            return 0.0
        return self.simulated_lane_cycles() / self.width_cycles

    def record_to(self, registry) -> None:
        """Report this run's totals into a metrics registry
        (:class:`repro.obs.metrics.MetricsRegistry` or compatible)."""
        for name in (
            "n_injections",
            "n_passes",
            "cycles_simulated",
            "lane_cycles",
            "width_cycles",
            "activations",
            "deferred",
            "refills",
            "early_retired",
            "policy_skipped",
            "forced_cycles",
            "merged",
            "rider_cycles",
            "nonrelevant",
            "hold_riders",
            "parked_cycles",
        ):
            value = getattr(self, name)
            if value:
                registry.counter(f"scheduler.{name}").inc(value)
        if self.width_cycles:
            registry.gauge("scheduler.lane_occupancy").set(self.lane_occupancy())


@dataclass
class ScheduledOutcome:
    """Per-request verdicts of one scheduled run.

    Request *k* failed when ``failed[k]`` is set, after ``latency[k]``
    cycles (0 when it did not fail): bit-identical to running each request
    through :meth:`FaultInjector.run_batch`.  One byte and one machine word
    per request.

    ``skipped`` lists the keys of requests an ``admit`` gate rejected —
    those were never simulated and their verdict slots are meaningless.
    """

    failed: bytearray
    latency: array
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    skipped: List[int] = field(default_factory=list)

    def verdict(self, k: int) -> Tuple[bool, Optional[int]]:
        """``(failed, latency)`` of request *k*, read from :attr:`failed`
        and :attr:`latency`; *latency* is ``None`` unless it failed."""
        return (True, self.latency[k]) if self.failed[k] else (False, None)

    @property
    def verdicts(self) -> List[Tuple[bool, Optional[int]]]:
        """Every :meth:`verdict`, as a fresh list on each access — a
        convenience for tests comparing whole runs."""
        return [self.verdict(k) for k in range(len(self.failed))]


class _Requests:
    """A run's requests as parallel machine-word arrays, indexed by key,
    plus the verdict slots the passes fill."""

    __slots__ = ("cycle", "ff", "group", "n_groups", "failed", "latency")

    def __init__(self, cycle: array, ff: array, group: array) -> None:
        self.cycle = cycle
        self.ff = ff
        self.group = group
        self.n_groups = max(group, default=0) + 1
        self.failed = bytearray(len(cycle))
        self.latency = array("q", bytes(8 * len(cycle)))


class AdaptiveScheduler:
    """Long-lived injection scheduler bound to one :class:`FaultInjector`.

    Parameters
    ----------
    injector:
        The bound forward simulator.
    max_lanes:
        Lane-slot capacity of one pass; ``None`` (default) sizes it by the
        netlist (:func:`auto_max_lanes`).

    ``merge_min_due`` is the fewest due lanes at which a retirement check
    looks for lanes to merge: one more than the relevant flip-flops.  The
    merge probe costs a few big-int operations per relevant row on top of
    the divergence probe, and a check with fewer due lanes than rows finds
    few lanes sharing one differing row.  The differential verifier sets
    it to 1 so that every check looks.
    """

    def __init__(
        self,
        injector: "FaultInjector",
        max_lanes: Optional[int] = None,
    ) -> None:
        if max_lanes is None:
            max_lanes = auto_max_lanes(len(injector.sim.values))
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.injector = injector
        self.max_lanes = max_lanes
        self.stats = SchedulerStats()
        self.merge_min_due = len(injector.relevant_rows) + 1

    # ------------------------------------------------------------------ API

    def run(
        self,
        injections: Iterable[Tuple[int, int]],
        admit: Optional[Callable[[int], bool]] = None,
        on_verdict: Optional[Callable[[int, bool], None]] = None,
        groups: Optional[Sequence[int]] = None,
    ) -> ScheduledOutcome:
        """Simulate every ``(cycle, ff_index)`` injection; return verdicts.

        Request *k* (its *key*) is the *k*-th injection.  Lanes are packed
        and refilled across injection cycles; results are bit-identical to
        one :meth:`FaultInjector.run_batch` lane per injection.  Each lane
        is observed until it fails, re-converges or the trace ends.

        *admit* and *on_verdict* are the refill queue's online policy
        hooks (see :class:`repro.campaigns.policy.ShardGate`): before a
        pending request is activated into a freed lane, ``admit(key)`` may
        reject it — the request is recorded in
        :attr:`ScheduledOutcome.skipped` and never simulated — and
        ``on_verdict(key, failed)`` fires as each lane retires, so the gate
        sees results in execution order.  The simulated requests' verdicts
        stay bit-identical to an ungated run.

        *groups*, when given, assigns request *k* to request group
        ``groups[k]`` (a non-negative int).  Every group runs exactly the
        passes, deferrals, checks and hook calls it would run alone —
        ``run`` over only that group's injections, in their order — but
        pass *k* of every group shares one sweep of the window.  Statistics
        count the shared sweeps: ``n_passes`` is the most passes any group
        needs, while ``lane_cycles`` is the sum of the solo runs'.
        """
        n_cycles = self.injector.golden.n_cycles
        pairs = array("q", chain.from_iterable(injections))
        cycles, ffs = pairs[0::2], pairs[1::2]
        del pairs
        total = len(cycles)
        for cycle in (min(cycles, default=0), max(cycles, default=0)):
            if not 0 <= cycle < n_cycles:
                raise ValueError(
                    f"injection cycle {cycle} outside trace [0, {n_cycles})"
                )
        if groups is None:
            group_of = array("q", bytes(8 * total))
        else:
            if len(groups) != total:
                raise ValueError(f"{len(groups)} groups for {total} injections")
            group_of = array("q", groups)
            if min(group_of, default=0) < 0:
                raise ValueError(f"request group {min(group_of)} is negative")
        requests = _Requests(cycles, ffs, group_of)
        self.stats = SchedulerStats(n_injections=total)
        skipped: List[int] = []
        # Keys in (cycle, key) order: a stable sort on the cycle.
        pending = array("q")
        pending.frombytes(
            np.argsort(np.frombuffer(cycles, dtype=np.int64), kind="stable").tobytes()
        )
        while pending:
            # Deferred requests come back in (cycle, key) order, so every
            # group's share of a later pass is its solo pass.
            pending = self._run_pass(pending, requests, admit, on_verdict, skipped)
            self.stats.n_passes += 1
        outcome = ScheduledOutcome(
            requests.failed, requests.latency, stats=self.stats, skipped=skipped
        )
        if not total:
            return outcome
        from ..obs import get_telemetry

        registry = get_telemetry().registry
        self.stats.record_to(registry)
        # Riders share their lane's simulated slot; parked requests have none.
        registry.counter("sim.compiled.lane_cycles").inc(
            self.stats.simulated_lane_cycles()
        )
        if self.injector.fault_model is not None:
            registry.counter(
                f"fault.{self.injector.fault_model.name}.injections"
            ).inc(total - len(skipped))
        return outcome

    # ---------------------------------------------------------- cycle path

    def _run_pass(
        self,
        pending: array,
        requests: _Requests,
        admit: Optional[Callable[[int], bool]],
        on_verdict: Optional[Callable[[int, bool], None]],
        skipped: List[int],
    ) -> array:
        """One sweep over the *pending* keys; returns the deferred ones.

        Lane bookkeeping touches width-sized ints once per cycle, not once
        per lane: set lanes are listed with :func:`set_lanes` and the
        activation masks are built with :func:`lanes_mask`.

        Requests the injector's
        :attr:`~repro.faultinjection.injector.FaultInjector.release_cycles`
        decides are admitted and counted at their own cycle but *parked*
        without a lane: a non-relevant one until its group's next check
        (or the end of the trace), where it retires unfailed as its lane
        would have; one inside a hold run until the run's end ``t*``, where
        it rides the group's lane struck at ``(f, t*)`` or takes its own.
        Cycles in which only parked requests are live are not simulated,
        but every group check in them still runs.
        """
        injector = self.injector
        sim = injector.sim
        check = injector.check_interval
        end_of_trace = injector.golden.n_cycles
        stats = self.stats
        cycle_of = requests.cycle
        ff_of = requests.ff
        group_of = requests.group
        failed_out = requests.failed
        latency_out = requests.latency

        # Per-group pass state: the lane cap, live lanes and check grid each
        # group would have running alone.  A group's requests find no lane
        # (and roll over to its next pass) only once it is full at its cap;
        # below the cap the shared batch grows instead.
        n_groups = requests.n_groups
        if n_groups == 1:
            group_cap = [len(pending)]
        else:
            group_cap = [0] * n_groups
            for key in pending:
                group_cap[group_of[key]] += 1
        group_cap = [min(self.max_lanes, n) for n in group_cap]
        group_live = [0] * n_groups
        group_bits = [0] * n_groups  # live lanes of each group
        group_check = [_IDLE] * n_groups  # next check cycle; _IDLE when empty
        group_capped = [-1] * n_groups  # cycle at which the group hit its cap
        emptied: List[int] = []  # groups drained since the last activation
        next_due = _IDLE  # earliest check of any group

        cap = sum(group_cap)
        width = min(MIN_WIDTH, cap)
        stats.peak_width = max(stats.peak_width, width)
        sim.resize_lanes(width)
        mask = sim.mask
        values = sim.values
        settle = injector.observed_settle
        load_fn = injector.activation_loader
        tick = injector.relevant_tick
        relevant_bits = injector.relevant_bits
        release_of = injector.release_cycles

        pipelines = injector.new_pipelines()
        lane_key: List[Optional[int]] = [None] * width
        # Cycle at which the lane first failed; -1 while it has not.
        lane_failed_at: List[int] = [-1] * width
        # Requests riding each lane besides lane_key (None when none).
        lane_riders: List[Optional[List[int]]] = [None] * width
        riding = 0  # live riders, summed over lanes
        free: List[int] = list(range(width))  # heap: lowest free lane first

        # Lanes whose fault-model plan forces: lane -> (plan, struck cycle).
        lane_force: Dict[int, Tuple[InjectionPlan, int]] = {}

        # Parked requests: non-relevant keys waiting for their group's next
        # check, and hold-run keys by the cycle that ends their run.
        waiting: List[List[int]] = [[] for _ in range(n_groups)]
        held: Dict[int, List[int]] = {}
        held_ends: List[int] = []  # heap of held's cycles
        parked = 0
        # (group, ff) -> the first key struck at a cycle where hold runs end.
        struck: Dict[Tuple[int, int], int] = {}

        active = 0  # lanes carrying an injection; always within the mask
        failed = 0  # active lanes whose injection has failed
        ever_used = 0  # lanes that have carried an injection this pass
        deferred = array("q")
        ptr = 0
        n_pending = len(pending)

        def give_verdict(key: int, failed_at: int) -> None:
            if failed_at >= 0:
                failed_out[key] = 1
                latency_out[key] = failed_at - cycle_of[key]
            if on_verdict is not None:
                on_verdict(key, failed_at >= 0)

        def retire_lanes(retire_bits: int, early: bool = False) -> None:
            """Retire every request on the *retire_bits* lanes; *early*
            counts the unfailed ones as retired at a check."""
            nonlocal active, failed, riding
            for lane in set_lanes(retire_bits):
                key = lane_key[lane]
                riders = lane_riders[lane]
                lane_key[lane] = None
                lane_riders[lane] = None
                lane_force.pop(lane, None)
                n_requests = 1
                failed_at = lane_failed_at[lane]
                give_verdict(key, failed_at)
                if riders is not None:
                    n_requests += len(riders)
                    riding -= len(riders)
                    for rider in riders:
                        give_verdict(rider, failed_at)
                if early and failed_at < 0:
                    stats.early_retired += n_requests
                group = group_of[key]
                group_live[group] -= n_requests
                if not group_live[group]:
                    emptied.append(group)
                heappush(free, lane)
            keep = ~retire_bits
            for group in range(n_groups):
                group_bits[group] &= keep
            active &= keep
            failed &= keep

        def retire_waiting(group: int, early: bool) -> None:
            """Give the unfailed verdict to every non-relevant request of
            *group* parked since its last check."""
            nonlocal parked
            keys = waiting[group]
            for key in keys:
                give_verdict(key, -1)
            if early:
                stats.early_retired += len(keys)
            parked -= len(keys)
            group_live[group] -= len(keys)
            if not group_live[group]:
                emptied.append(group)
            waiting[group] = []

        def merge_lanes(candidates: int, planes: List[int]) -> None:
            """Let lanes that share one differing relevant row and one
            request group ride the lowest of them."""
            nonlocal active, riding
            lanes = np.array(set_lanes(candidates), dtype=np.int64)
            n_bytes = (width + 7) // 8
            row = np.zeros(len(lanes), dtype=np.int64)
            for b, plane in enumerate(planes):
                if plane & candidates:
                    bits = np.unpackbits(
                        np.frombuffer(plane.to_bytes(n_bytes, "little"), dtype=np.uint8),
                        bitorder="little",
                    )
                    row |= bits[lanes].astype(np.int64) << b
            if n_groups > 1:
                row = row * n_groups + np.array(
                    [group_of[lane_key[lane]] for lane in lanes.tolist()],
                    dtype=np.int64,
                )
            order = np.argsort(row, kind="stable")  # lanes stay ascending
            row = row[order]
            lanes = lanes[order]
            # Every lane after the first of its (row, group) run rides the
            # run's first, lowest lane.
            starts = np.diff(row, prepend=-1) != 0
            rides = ~starts
            if not rides.any():
                return
            head = np.maximum.accumulate(np.where(starts, np.arange(len(row)), 0))
            gone = lanes[rides].tolist()
            for lane, survivor in zip(gone, lanes[head[rides]].tolist()):
                key = lane_key[lane]
                lane_key[lane] = None
                riders = lane_riders[survivor]
                if riders is None:
                    riders = lane_riders[survivor] = []
                more = lane_riders[lane]
                if more is not None:
                    lane_riders[lane] = None
                    riders.extend(more)
                riders.append(key)
            riding += len(gone)
            stats.merged += len(gone)
            free.extend(gone)
            heapify(free)
            keep = ~lanes_mask(gone)
            for group in range(n_groups):
                group_bits[group] &= keep
            active &= keep

        def set_width(new_width: int) -> None:
            """Grow or truncate the batch; every lane at or above
            *new_width* is free when truncating."""
            nonlocal width, mask
            sim.resize_lanes(new_width, keep=True)
            if new_width > width:
                # Appending lanes above every free lane keeps the heap.
                free.extend(range(width, new_width))
                grown = new_width - width
                lane_key.extend([None] * grown)
                lane_failed_at.extend([-1] * grown)
                lane_riders.extend([None] * grown)
            else:
                free[:] = [lane for lane in free if lane < new_width]
                heapify(free)
                del lane_key[new_width:], lane_failed_at[new_width:]
                del lane_riders[new_width:]
                for pipeline in pipelines:
                    pipeline[:] = [vec & sim.mask for vec in pipeline]
            width = new_width
            mask = sim.mask
            stats.peak_width = max(stats.peak_width, width)

        c = cycle_of[pending[0]]
        while True:
            # -- activate pending injections scheduled for this cycle.
            regrid = False
            loading: List[int] = []  # keys that take a lane at c
            # Requests admitted now release later, so this holds all cycle.
            releasing = bool(held_ends) and held_ends[0] == c
            while ptr < n_pending:
                key = pending[ptr]
                if cycle_of[key] != c:
                    break
                ptr += 1
                group = group_of[key]
                if group_capped[group] == c:
                    # The group is full: its remaining requests of this
                    # cycle roll over to its next pass unasked.
                    deferred.append(key)
                    stats.deferred += 1
                    continue
                # The policy gate is consulted before a lane is committed:
                # a rejected request costs nothing (no lane, no simulation)
                # and is recorded as skipped rather than deferred.
                if admit is not None and not admit(key):
                    skipped.append(key)
                    stats.policy_skipped += 1
                    continue
                if group_live[group] == group_cap[group]:
                    group_capped[group] = c
                    deferred.append(key)  # no free lane: next pass
                    stats.deferred += 1
                    continue
                if group_check[group] == _IDLE:
                    # The group's check grid starts at its (re)activation.
                    group_check[group] = c + check
                    regrid = True
                group_live[group] += 1
                stats.activations += 1
                releases = release_of[ff_of[key]]
                if releases is not None:
                    release = releases[c]
                    if release < 0:
                        waiting[group].append(key)
                        stats.nonrelevant += 1
                        parked += 1
                        continue
                    if release != c:
                        if release in held:
                            held[release].append(key)
                        else:
                            held[release] = [key]
                            heappush(held_ends, release)
                        parked += 1
                        continue
                    if releasing:
                        struck.setdefault((group, ff_of[key]), key)
                loading.append(key)
            rides: Dict[int, List[int]] = {}
            if releasing:
                # Hold runs ending at c: each request rides its group's first
                # request struck at (ff, c), or takes a lane of its own.
                heappop(held_ends)
                keys = held.pop(c)
                parked -= len(keys)
                for key in keys:
                    host = struck.setdefault((group_of[key], ff_of[key]), key)
                    if host == key:
                        loading.append(key)
                    else:
                        rides.setdefault(host, []).append(key)
                        riding += 1
                        stats.hold_riders += 1
                struck.clear()
            act_lanes: List[int] = []
            for key in loading:
                if not free:
                    set_width(min(2 * width, cap))
                lane = heappop(free)
                lane_key[lane] = key
                lane_failed_at[lane] = -1
                lane_riders[lane] = rides.get(key)
                act_lanes.append(lane)
            if emptied:
                # A group still empty after this cycle's activations idles:
                # its grid restarts whenever it next activates.
                for group in emptied:
                    if not group_live[group]:
                        group_check[group] = _IDLE
                emptied.clear()
                regrid = True
            if regrid:
                next_due = min(group_check)
            if act_lanes:
                activated = lanes_mask(act_lanes)
                if n_groups == 1:
                    group_bits[0] |= activated
                else:
                    by_group: Dict[int, List[int]] = {}
                    for lane in act_lanes:
                        by_group.setdefault(group_of[lane_key[lane]], []).append(lane)
                    for group, lanes in by_group.items():
                        group_bits[group] |= lanes_mask(lanes)
                stats.refills += (activated & ever_used).bit_count()
                ever_used |= activated
                load_fn(values, activated, activated ^ mask, relevant_bits[c])
                lane_force.update(
                    injector.strike(c, [(lane, ff_of[lane_key[lane]]) for lane in act_lanes])
                )
                injector.seed_loopback(pipelines, c, activated)
                active |= activated

            if active:
                # -- simulate cycle c: the injector's cycle steps around the
                # scheduled settle and tick.
                injector.drive(c, pipelines)
                if lane_force:
                    stats.forced_cycles += injector.force(c, lane_force)
                settle(values, mask)
                newly = injector.observe(c, pipelines) & active & ~failed
                if newly:
                    failed |= newly
                    for lane in set_lanes(newly):
                        lane_failed_at[lane] = c
                tick(values, mask)

                c += 1
                stats.cycles_simulated += 1
                stats.lane_cycles += active.bit_count() + riding + parked
                stats.rider_cycles += riding
                stats.parked_cycles += parked
                stats.width_cycles += width
            elif parked:
                # Only parked requests are live: skip to the next check,
                # release, activation or the end of the trace.
                upto = min(next_due, end_of_trace)
                if held_ends:
                    upto = min(upto, held_ends[0])
                if ptr < n_pending:
                    upto = min(upto, cycle_of[pending[ptr]])
                stats.lane_cycles += parked * (upto - c)
                stats.parked_cycles += parked * (upto - c)
                c = upto
            elif ptr < n_pending:
                c = cycle_of[pending[ptr]]  # fast-forward over empty cycles
                continue
            else:
                break

            # -- retirement check / merge / truncation.
            if c >= end_of_trace:
                retire_lanes(active)
                for group in range(n_groups):
                    if waiting[group]:
                        retire_waiting(group, early=False)
                break
            if c == next_due:
                # Only the groups whose check is due retire requests here.
                due_bits = 0
                for group in range(n_groups):
                    if group_check[group] == c:
                        group_check[group] = c + check
                        due_bits |= group_bits[group]
                        if waiting[group]:
                            retire_waiting(group, early=True)
                next_due = min(group_check)
                if due_bits:
                    look = due_bits.bit_count() >= self.merge_min_due
                    if look:
                        row_diff, multi, planes = injector.diverging_row_planes(
                            c, due_bits
                        )
                    else:
                        row_diff, multi = injector.diverging_rows(c, due_bits), 0
                    slot_diff = injector.diverging_slots(c, pipelines, due_bits)
                    # A forcing lane that matches golden right now is not
                    # done — a later duty-on cycle can re-disturb it — so
                    # convergence retirement excludes live force lanes
                    # (failure still retires).
                    force = lanes_mask(list(lane_force))
                    converged = (mask ^ (row_diff | slot_diff)) & ~force
                    retire_bits = due_bits & (failed | converged)
                    if retire_bits:
                        retire_lanes(retire_bits, early=True)
                    if look and active:
                        candidates = _merge_candidates(
                            row_diff, multi, slot_diff, failed | force, active
                        )
                        if candidates & (candidates - 1):
                            merge_lanes(candidates, planes)
                if not active:
                    continue  # drained: fast-forward (or end) above
                if width > MIN_WIDTH and active.bit_length() <= width // 2:
                    set_width(max(active.bit_length(), MIN_WIDTH))

        return deferred + pending[ptr:]
