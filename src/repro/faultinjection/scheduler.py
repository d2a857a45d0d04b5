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
  the D/RN pins of the relevant flip-flops, then runs the plain clock
  edge.  The remaining cells feed only flip-flops outside the relevant
  set, which no verdict reads, so those flip-flops may hold stale values
  during a scheduled pass.

* **request groups** — one pass may carry several independent request
  groups (the gate shards of a sampling round).  Each group keeps exactly
  the pass state it would have running alone: its own lane cap
  ``min(max_lanes, group pending)`` and deferral, and its own retirement
  check grid (started at its first activation, restarted when it
  activates after running empty).  The groups share the simulated cycle,
  the lane batch, the elastic width (capped at the sum of the group caps),
  truncation and the per-lane horizon deadlines.  A window that
  several groups would each sweep alone is swept once.

All of this is scheduling only: each lane still simulates the exact cycle
sequence :meth:`run_batch` would have on every net a verdict reads, so
per-injection verdicts and error latencies are **bit-identical** to the
naive batches — enforced per fuzz seed by the ``scheduled-vs-naive``
differential mode in :mod:`repro.verify.diff` and by the property tests in
``tests/test_scheduler.py``.  Lane indices do not matter: retirement
cycles follow the check grid and each lane's own state, and within one
retirement batch no ``admit`` runs between ``on_verdict`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.compiled import bind_chunks, compile_chunked
from ..sim.logic import lane_mask
from .faults import InjectionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .injector import FaultInjector

__all__ = [
    "InjectionRequest",
    "ScheduledOutcome",
    "SchedulerStats",
    "AdaptiveScheduler",
]

#: Width a pass starts at, and the narrowest it truncates to.  A pass
#: doubles its width only when no lane is free (up to its cap) and
#: truncates to its highest live lane once that fits in half the width:
#: below a few machine words a big-int operation costs the same at any
#: width, so narrower batches would only add resizes.
MIN_WIDTH = 64

#: Default lane-slot capacity when ``max_lanes`` is ``None``.  Wider
#: batches amortize the per-statement interpreter cost over more lanes —
#: but only pay off when the batch stays *full*, which is exactly what
#: refill provides (a naive batch this wide would drain to a few stragglers
#: and waste almost the whole width).  Pass width is always additionally
#: capped by the pending-request count.
AUTO_MAX_LANES = 4096


#: Check-grid value of a group with no live lanes: its grid restarts at
#: its next activation.
_IDLE = 1 << 62


@dataclass(frozen=True, slots=True)
class InjectionRequest:
    """One pending injection: strike ``ff_index`` at ``cycle`` under the
    injector's fault model; ``key`` indexes the caller's request list and
    names the verdict slot, ``group`` is the request group it runs in
    (see :meth:`AdaptiveScheduler.run`).  Slotted: a pass holds a whole
    sampling round's requests."""

    cycle: int
    ff_index: int
    key: int
    group: int = 0


@dataclass
class SchedulerStats:
    """What one :meth:`AdaptiveScheduler.run` actually simulated.

    ``refills`` counts activations that reuse a lane freed earlier in the
    same pass (the lanes early retirement gave back), ``early_retired``
    the lanes retired at a divergence probe before the end of the trace
    without having failed (i.e. re-converged to golden),
    ``peak_width`` the widest lane batch any pass allocated and
    ``width_cycles`` the allocated lanes summed over simulated cycles
    (the width actually paid for, as passes grow and truncate).
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

    def lane_occupancy(self) -> float:
        """Live lane-cycles as a fraction of the peak-width bound.

        ``lane_cycles / (cycles_simulated * peak_width)``: the share of the
        widest batch's slots that carried a live injection (a naive drained
        batch decays toward 1/width).  Passes narrower than the peak, and
        a pass that grows or truncates, allocate fewer slots than this
        bound; ``width_cycles`` counts the slots actually allocated.  0.0
        when nothing was simulated.
        """
        if not self.cycles_simulated or not self.peak_width:
            return 0.0
        return self.lane_cycles / (self.cycles_simulated * self.peak_width)

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
        ):
            value = getattr(self, name)
            if value:
                registry.counter(f"scheduler.{name}").inc(value)
        if self.cycles_simulated and self.peak_width:
            registry.gauge("scheduler.lane_occupancy").set(self.lane_occupancy())


@dataclass
class ScheduledOutcome:
    """Per-request verdicts of one scheduled run.

    ``verdicts[key]`` is ``(failed, latency)`` for the request with that
    key; *latency* is ``None`` unless the lane failed.  Bit-identical to
    running each request through :meth:`FaultInjector.run_batch`.

    ``skipped`` lists the keys of requests an ``admit`` gate rejected —
    those were never simulated and their verdict slots are meaningless.
    """

    verdicts: List[Tuple[bool, Optional[int]]]
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    skipped: List[int] = field(default_factory=list)


class AdaptiveScheduler:
    """Long-lived injection scheduler bound to one :class:`FaultInjector`.

    Parameters
    ----------
    injector:
        The bound forward simulator.
    max_lanes:
        Lane-slot capacity of one pass; ``None`` (default) picks
        :data:`AUTO_MAX_LANES`.
    """

    def __init__(
        self,
        injector: "FaultInjector",
        max_lanes: Optional[int] = None,
    ) -> None:
        if max_lanes is None:
            max_lanes = AUTO_MAX_LANES
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.injector = injector
        self.max_lanes = max_lanes
        self.stats = SchedulerStats()
        self._load_fn = None
        # Value rows of the relevant flip-flops, in relevant_golden bit order.
        self._relevant_rows = [q_idx for q_idx, _ff in injector._relevant_pairs]

    # ------------------------------------------------------------------ API

    def run(
        self,
        injections: Sequence[Tuple[int, int]],
        horizon: Optional[int] = None,
        admit: Optional[Callable[[InjectionRequest], bool]] = None,
        on_verdict: Optional[Callable[[InjectionRequest, bool], None]] = None,
        groups: Optional[Sequence[int]] = None,
    ) -> ScheduledOutcome:
        """Simulate every ``(cycle, ff_index)`` injection; return verdicts.

        Verdict *k* corresponds to ``injections[k]``.  Lanes are packed and
        refilled across injection cycles; results are bit-identical to one
        :meth:`FaultInjector.run_batch` lane per injection.  *horizon*, when
        given, must be at least 1: it is the number of cycles each lane is
        observed from its injection cycle.

        *admit* and *on_verdict* are the refill queue's online policy
        hooks (see :class:`repro.campaigns.policy.ShardGate`): before a
        pending request is activated into a freed lane, ``admit(request)``
        may reject it — the request is recorded in
        :attr:`ScheduledOutcome.skipped` and never simulated — and
        ``on_verdict(request, failed)`` fires as each lane retires, so the
        gate sees results in execution order.  The simulated requests'
        verdicts stay bit-identical to an ungated run.

        *groups*, when given, assigns injection *k* to request group
        ``groups[k]`` (a non-negative int, carried as
        :attr:`InjectionRequest.group`).  Every group runs exactly the
        passes, deferrals, checks and hook calls it would run alone —
        ``run`` over only that group's injections, in their order — but
        pass *k* of every group shares one sweep of the window.  Statistics
        count the shared sweeps: ``n_passes`` is the most passes any group
        needs, while ``lane_cycles`` is the sum of the solo runs'.
        """
        if horizon is not None and horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if groups is not None and len(groups) != len(injections):
            raise ValueError(
                f"{len(groups)} groups for {len(injections)} injections"
            )
        golden = self.injector.golden
        n_cycles = golden.n_cycles
        requests: List[InjectionRequest] = []
        for key, (cycle, ff_index) in enumerate(injections):
            if not 0 <= cycle < n_cycles:
                raise ValueError(
                    f"injection cycle {cycle} outside trace [0, {n_cycles})"
                )
            group = 0 if groups is None else groups[key]
            if group < 0:
                raise ValueError(f"request group {group} is negative")
            requests.append(InjectionRequest(cycle, ff_index, key, group))
        # Stable: equal cycles keep key order.
        requests.sort(key=attrgetter("cycle"))

        self.stats = SchedulerStats(n_injections=len(requests))
        verdicts: List[Tuple[bool, Optional[int]]] = [(False, None)] * len(requests)
        if not requests:
            return ScheduledOutcome(verdicts=verdicts, stats=self.stats)

        total = len(requests)
        skipped: List[int] = []
        pending = requests
        while pending:
            # Deferred requests come back in (cycle, key) order, so every
            # group's share of a later pass is its solo pass.
            pending = self._run_pass(
                pending, verdicts, horizon, admit, on_verdict, skipped
            )
            self.stats.n_passes += 1
        from ..obs import get_telemetry

        registry = get_telemetry().registry
        self.stats.record_to(registry)
        registry.counter("sim.compiled.lane_cycles").inc(
            self.stats.lane_cycles
        )
        if self.injector.fault_model is not None:
            registry.counter(
                f"fault.{self.injector.fault_model.name}.injections"
            ).inc(total - len(skipped))
        return ScheduledOutcome(verdicts=verdicts, stats=self.stats, skipped=skipped)

    # ---------------------------------------------------------- cycle path

    def _observed_settle(self) -> Callable[[List[int], int, list], None]:
        """The settle of every scheduled cycle: only the cells a verdict can read.

        That is the combinational fan-in of the criterion nets, the
        loopback tap sources and the D/RN pins of the relevant flip-flops.
        Every other cell feeds only flip-flops outside the relevant set,
        whose values no verdict, probe or relevant cone reads, so they are
        left stale.  Cached on the injector, since it depends only on the
        (netlist, criterion, testbench) binding; on a circuit whose every
        flip-flop is relevant this is the simulator's own cached ``_eval``.
        """
        settle = getattr(self.injector, "_cached_observed_settle", None)
        if settle is None:
            injector = self.injector
            sim = injector.sim
            roots = [idx for idx, _bit in injector.criterion_valid_pairs]
            roots += [idx for idx, _bit in injector.criterion_data_pairs]
            roots += [tap.source_value_idx for tap in injector.taps]
            for _q_idx, ff_index in injector._relevant_pairs:
                roots.append(sim._ff_d[ff_index])
                if sim._ff_rn[ff_index] is not None:
                    roots.append(sim._ff_rn[ff_index])
            settle = sim.compile_cone_eval(roots)
            injector._cached_observed_settle = settle
        return settle

    def _activation_loader(self):
        """Generated per-lane golden-state loader (one statement per flip-flop).

        ``_load(v, z, am, nam, gs)`` sets, on the lanes selected by the
        lane vectors ``am``/``nam = am ^ mask``, every flip-flop Q to its
        golden bit from the packed state ``gs`` — the scatter half of
        mixed-cycle activation, without a per-flip-flop Python loop.
        """
        if self._load_fn is None:
            load_fn = getattr(self.injector, "_cached_activation_loader", None)
            if load_fn is None:
                sim = self.injector.sim
                body = [
                    f"v[{q}] = (v[{q}] & nam) | (am if (gs >> {i}) & 1 else z)"
                    for i, q in enumerate(sim._ff_q)
                ]
                codes = compile_chunked(
                    "_load", "v, z, am, nam, gs", body, f"<repro-load:{sim.netlist.name}>"
                )
                load_fn = bind_chunks(codes, "_load")
                self.injector._cached_activation_loader = load_fn
            self._load_fn = load_fn
        return self._load_fn

    def _masked(self, packed: int) -> int:
        """Packed lane mask restricted to the simulator's current lanes."""
        return packed & self.injector.sim.mask

    def _run_pass(
        self,
        pending: List[InjectionRequest],
        verdicts: List[Tuple[bool, Optional[int]]],
        horizon: Optional[int],
        admit: Optional[Callable[[InjectionRequest], bool]] = None,
        on_verdict: Optional[Callable[[InjectionRequest, bool], None]] = None,
        skipped: Optional[List[int]] = None,
    ) -> List[InjectionRequest]:
        injector = self.injector
        sim = injector.sim
        golden = injector.golden
        criterion = injector._criterion
        taps = injector.taps
        check = injector.check_interval
        end_of_trace = golden.n_cycles
        stats = self.stats

        # Per-group pass state: the lane cap, live lanes and check grid each
        # group would have running alone.  A group's requests find no lane
        # (and roll over to its next pass) only once it is full at its cap;
        # below the cap the shared batch grows instead.
        n_groups = max(request.group for request in pending) + 1
        group_cap = [0] * n_groups
        for request in pending:
            group_cap[request.group] += 1
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
        zero = sim.broadcast(0)
        values = sim.values
        all_lanes = lane_mask(width)
        clock_nets = sim._clock_nets
        fallback_cells = sim._fallback_cells
        settle = self._observed_settle()
        load_fn = self._activation_loader()

        slots: List[List[object]] = [[zero] * tap.delay for tap in taps]
        lane_req: List[Optional[InjectionRequest]] = [None] * width
        lane_lat: List[int] = [0] * width
        free: List[int] = list(range(width))  # heap: lowest free lane first
        deadlines: Dict[int, List[Tuple[int, InjectionRequest]]] = {}

        # Fault-model state: per-lane plan compilation and force bookkeeping.
        bound = injector.bound_model
        ff_cells = sim.flip_flops
        lane_force: List[
            Optional[Tuple[InjectionPlan, int, List[Tuple[int, int]]]]
        ] = [None] * width
        force_int = 0

        active_int = 0
        active_vec = zero
        failed_int = 0
        failed = zero
        ever_used = 0  # lanes that have carried an injection this pass
        deferred: List[InjectionRequest] = []
        ptr = 0
        n_pending = len(pending)

        def retire_lanes(retire_bits: int) -> None:
            nonlocal active_int, active_vec, failed_int, failed, force_int
            bits = retire_bits
            while bits:
                low = bits & -bits
                lane = low.bit_length() - 1
                bits ^= low
                request = lane_req[lane]
                lane_req[lane] = None
                lane_force[lane] = None
                group = request.group
                group_live[group] -= 1
                if not group_live[group]:
                    emptied.append(group)
                lane_failed = bool((failed_int >> lane) & 1)
                verdicts[request.key] = (
                    lane_failed,
                    lane_lat[lane] if lane_failed else None,
                )
                if on_verdict is not None:
                    on_verdict(request, lane_failed)
                heappush(free, lane)
            keep = ~retire_bits
            for group in range(n_groups):
                group_bits[group] &= keep
            active_int &= keep
            failed_int &= keep
            force_int &= keep
            active_vec = self._masked(active_int)
            failed = self._masked(failed_int)

        def set_width(new_width: int) -> None:
            """Grow or truncate the batch; every lane at or above
            *new_width* is free when truncating."""
            nonlocal width, mask, all_lanes
            sim.resize_lanes(new_width, keep=True)
            if new_width > width:
                # Appending lanes above every free lane keeps the heap.
                free.extend(range(width, new_width))
                grown = new_width - width
                lane_req.extend([None] * grown)
                lane_lat.extend([0] * grown)
                lane_force.extend([None] * grown)
            else:
                free[:] = [lane for lane in free if lane < new_width]
                heapify(free)
                del lane_req[new_width:], lane_lat[new_width:], lane_force[new_width:]
                for pipeline in slots:
                    pipeline[:] = [vec & sim.mask for vec in pipeline]
            width = new_width
            mask = sim.mask
            all_lanes = lane_mask(width)
            stats.peak_width = max(stats.peak_width, width)

        c = pending[0].cycle
        while True:
            # -- per-lane horizon deadlines: stop observing before cycle c.
            if horizon is not None and c in deadlines:
                expired = 0
                for lane, request in deadlines.pop(c):
                    # A stale entry may point at a lane that retired early
                    # and was refilled or truncated away — only the
                    # original request expires.
                    if lane < width and lane_req[lane] is request:
                        expired |= 1 << lane
                if expired:
                    retire_lanes(expired)

            # -- activate pending injections scheduled for this cycle.
            activated = 0
            regrid = False
            act_requests: List[Tuple[InjectionRequest, int]] = []
            while ptr < n_pending:
                request = pending[ptr]
                if request.cycle != c:
                    break
                ptr += 1
                group = request.group
                if group_capped[group] == c:
                    # The group is full: its remaining requests of this
                    # cycle roll over to its next pass unasked.
                    deferred.append(request)
                    stats.deferred += 1
                    continue
                # The policy gate is consulted before a lane is committed:
                # a rejected request costs nothing (no lane, no simulation)
                # and is recorded as skipped rather than deferred.
                if admit is not None and not admit(request):
                    if skipped is not None:
                        skipped.append(request.key)
                    stats.policy_skipped += 1
                    continue
                if group_live[group] == group_cap[group]:
                    group_capped[group] = c
                    deferred.append(request)  # no free lane: next pass
                    stats.deferred += 1
                    continue
                if not free:
                    set_width(min(2 * width, cap))
                if group_check[group] == _IDLE:
                    # The group's check grid starts at its (re)activation.
                    group_check[group] = c + check
                    regrid = True
                group_live[group] += 1
                lane = heappop(free)
                lane_req[lane] = request
                lane_bit = 1 << lane
                group_bits[group] |= lane_bit
                activated |= lane_bit
                act_requests.append((request, lane))
                if horizon is not None:
                    deadline = request.cycle + horizon
                    if deadline < end_of_trace:
                        deadlines.setdefault(deadline, []).append((lane, request))
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
            if activated:
                stats.refills += (activated & ever_used).bit_count()
                ever_used |= activated
                am = self._masked(activated)
                nam = am ^ mask
                load_fn(values, zero, am, nam, golden.ff_state[c])
                for request, lane in act_requests:
                    if bound is None:
                        sim.flip_ff(request.ff_index, 1 << lane)
                    else:
                        iplan = bound.plan(request.ff_index, request.cycle)
                        for f in iplan.flips:
                            sim.flip_ff(f, 1 << lane)
                        if iplan.forces:
                            rows = [
                                (sim.net_index[ff_cells[f].output_net()], v)
                                for f, v in iplan.forces
                            ]
                            lane_force[lane] = (iplan, request.cycle, rows)
                            force_int |= 1 << lane
                for t, tap in enumerate(taps):
                    tap_golden = tap.golden_bits
                    for past in range(c - tap.delay, c):
                        bit = tap_golden[past] if past >= 0 else 0
                        slot = slots[t][past % tap.delay]
                        slots[t][past % tap.delay] = (slot & nam) | (am if bit else zero)
                active_int |= activated
                active_vec = self._masked(active_int)
                stats.activations += len(act_requests)

            if active_int == 0:
                if ptr >= n_pending:
                    break
                c = pending[ptr].cycle  # fast-forward over empty cycles
                continue

            # -- simulate cycle c.
            applied = golden.applied_inputs[c]
            for bit_pos, value_idx in injector._open_inputs:
                values[value_idx] = mask if (applied >> bit_pos) & 1 else zero
            for t, tap in enumerate(taps):
                values[tap.target_value_idx] = slots[t][c % tap.delay]
            if force_int:
                # Re-assert forcing plans on their duty-on cycles, before the
                # settle — exactly mirroring run_batch and the oracle.
                bits = force_int
                while bits:
                    low = bits & -bits
                    lane = low.bit_length() - 1
                    bits ^= low
                    iplan, cycle0, rows = lane_force[lane]
                    if iplan.force_active(c - cycle0):
                        lv = sim.lane_vec(lane)
                        for q_idx, v in rows:
                            values[q_idx] = (values[q_idx] & ~lv) | (lv if v else zero)
                        stats.forced_cycles += 1

            for clk in clock_nets:
                values[clk] = zero
            settle(values, mask, fallback_cells)
            fail_c = criterion.evaluate(values, golden.outputs[c], mask)

            newly = fail_c & active_vec & ~failed
            if sim.vec_any(newly):
                failed = failed | newly
                newly_int = sim.vec_to_int(newly)
                failed_int |= newly_int
                while newly_int:
                    low = newly_int & -newly_int
                    lane = low.bit_length() - 1
                    lane_lat[lane] = c - lane_req[lane].cycle
                    newly_int ^= low

            for t, tap in enumerate(taps):
                slots[t][c % tap.delay] = sim.read_vec(tap.source_value_idx)
            sim.tick()

            c += 1
            stats.cycles_simulated += 1
            stats.lane_cycles += active_int.bit_count()
            stats.width_cycles += width

            # -- retirement check / truncation.
            if c >= end_of_trace:
                retire_lanes(active_int)
                break
            if c == next_due:
                # Only the groups whose check is due retire lanes here.
                due_bits = 0
                for group in range(n_groups):
                    if group_check[group] == c:
                        group_check[group] = c + check
                        due_bits |= group_bits[group]
                next_due = min(group_check)
                due_vec = (
                    active_vec if due_bits == active_int else self._masked(due_bits)
                )
                diff = self._probe_divergence(c, due_vec, slots)
                # A forcing lane that matches golden right now is not done —
                # a later duty-on cycle can re-disturb it — so convergence
                # retirement excludes live force lanes (failure still retires).
                converged = (all_lanes ^ sim.vec_to_int(diff)) & ~force_int
                retire_bits = due_bits & (failed_int | converged)
                if retire_bits:
                    stats.early_retired += (retire_bits & ~failed_int).bit_count()
                    retire_lanes(retire_bits)
                    if active_int == 0:
                        continue  # drained: fast-forward (or end) above
                if width > MIN_WIDTH and active_int.bit_length() <= width // 2:
                    set_width(max(active_int.bit_length(), MIN_WIDTH))

        return deferred + pending[ptr:]

    # ------------------------------------------------------------- internals

    def _probe_divergence(self, cycle: int, active_vec, slots) -> int:
        """Active-lane vector of lanes whose relevant flip-flops or
        in-flight loopback slots deviate from golden (the retirement test)."""
        injector = self.injector
        sim = injector.sim
        diff = sim.diverging_rows(
            self._relevant_rows, injector.relevant_golden(cycle), active_vec
        )
        mask = sim.mask
        zero = sim.broadcast(0)
        for t, tap in enumerate(injector.taps):
            tap_golden = tap.golden_bits
            for past in range(max(0, cycle - tap.delay), cycle):
                golden_vec = mask if tap_golden[past] else zero
                diff = diff | ((slots[t][past % tap.delay] ^ golden_vec) & active_vec)
        return diff
