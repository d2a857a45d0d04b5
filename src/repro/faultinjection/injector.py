"""Bit-parallel SEU forward simulation against a golden trajectory.

One :meth:`FaultInjector.run_batch` call simulates any number of
injections *at the same cycle* simultaneously, one lane each: lane *j* of
every net value is the run in which flip-flop ``ff_indices[j]`` was
inverted.  Three ingredients make the paper's full flat campaign tractable:

1. **Golden-state restart** — the fault run starts from the recorded golden
   flip-flop state at the injection cycle, not from reset;
2. **Reactive loopback replay** — loopback inputs (XGMII TX→RX) are fed from
   the *faulty* run's own outputs, while open-loop stimulus is replayed from
   the golden record;
3. **Early retirement** — a lane whose *relevant* flip-flop state and
   loopback pipeline have re-converged to golden can never deviate again and
   stops being interesting; the batch ends as soon as every lane has either
   failed or converged.  Relevant flip-flops are those with a structural
   path to the criterion outputs or loopback sources — a fault lingering
   only in, say, a statistics counter is provably benign and does not keep
   the batch alive.

The forward simulation runs on the compiled bit-parallel simulator
(:class:`~repro.sim.compiled.CompiledSimulator`), lanes packed into Python
integers.  Verdicts and latencies are cross-checked per fuzz seed against a
brute-force oracle by :mod:`repro.verify.diff`.

:meth:`FaultInjector.run_batch` is the naive per-cycle reference.
Campaigns run their injections through an
:class:`~repro.faultinjection.scheduler.AdaptiveScheduler` built on the
injector instead: it activates each injection at its own cycle inside one
long-lived forward pass, refills lanes freed by early retirement, starts
each pass narrow and doubles its width only when no lane is free, truncates
to the highest live lane as the pass drains, and settles only the observed
cone (the fan-in of the criterion nets, loopback taps and relevant
flip-flops) each cycle — same verdicts, a multiple of the throughput (see
``docs/performance.md``).

The injector owns what a simulated cycle is, and both loops share it: the
cycle steps (strike, loopback seeding, stimulus drive, forcing,
observation, and the row and slot probes) are :class:`FaultInjector`
methods, and so are the scheduled-pass kernels (the observed settle, the
relevant-only tick and the activation loader, built on first use).  The
naive loop runs the steps around the full settle and tick; the scheduler
runs them around the scheduled kernels and owns only the lanes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import get_telemetry
from ..sim.compiled import CompiledSimulator, ConePlan, bind_chunks, compile_chunked
from ..sim.logic import lane_mask, lanes_mask, set_lanes, unpack_words
from ..sim.testbench import GoldenTrace, Testbench
from .classify import FailureCriterion
from .faults import BoundFaultModel, FaultModel, InjectionPlan, parse_fault_model

__all__ = ["FaultInjector", "BatchOutcome", "relevant_flip_flops"]


def _golden_bits_table(
    ff_state: Sequence[int], n_ffs: int, ff_indices: Sequence[int]
) -> List[bytes]:
    """The bits *ff_indices* of every packed state in *ff_state*, one
    ``bytes`` row of 0/1 values per state."""
    bits = unpack_words(ff_state, n_ffs)
    return [row.tobytes() for row in bits[:, np.asarray(ff_indices, dtype=np.intp)]]


def _run_ends(hold_bits: int, n_cycles: int, typecode: str) -> array:
    """Entry *t*: the first cycle at or after *t* whose bit is clear in
    *hold_bits* (bit ``n_cycles - 1`` must be clear), from one reverse
    running minimum."""
    held = np.unpackbits(
        np.frombuffer(hold_bits.to_bytes((n_cycles + 7) // 8, "little"), dtype=np.uint8),
        bitorder="little",
    )[:n_cycles]
    ends = np.where(held, n_cycles, np.arange(n_cycles))
    ends = np.minimum.accumulate(ends[::-1])[::-1]
    return array(typecode, ends.astype(np.dtype(typecode)).tobytes())


def relevant_flip_flops(netlist: Netlist, observable_nets: Sequence[str]) -> Set[str]:
    """Flip-flops with a structural path (through any logic) to *observable_nets*.

    Backward reachability over the netlist: from each observable net through
    combinational cones and flip-flop D/RN pins.  A flip-flop outside this
    set cannot influence the observables, ever.
    """
    relevant: Set[str] = set()
    visited: Set[str] = set()
    stack = list(observable_nets)
    while stack:
        net_name = stack.pop()
        if net_name in visited:
            continue
        visited.add(net_name)
        driver = netlist.nets[net_name].driver
        if driver is None:
            continue
        cell = netlist.cells[driver.cell]
        if cell.is_sequential:
            relevant.add(cell.name)
            stack.extend(cell.data_input_nets())
        else:
            stack.extend(cell.input_nets())
    return relevant


@dataclass
class BatchOutcome:
    """Result of one injection batch.

    ``latencies[lane]`` is the error latency of a failed lane: the number of
    cycles between the SEU and the first observable deviation under the
    failure criterion (0 = visible in the injection cycle itself).
    """

    failed_mask: int
    n_lanes: int
    cycles_simulated: int
    latencies: Dict[int, int] = field(default_factory=dict)

    def failed_lanes(self) -> List[int]:
        """Lane indices whose runs were classified as functional failures."""
        return set_lanes(self.failed_mask)

    def verdict(self, lane: int) -> Tuple[bool, Optional[int]]:
        """``(failed, latency)`` of *lane*, in the shape of
        :meth:`~repro.faultinjection.scheduler.ScheduledOutcome.verdict`;
        *latency* is ``None`` unless it failed."""
        if self.failed_mask & (1 << lane):
            return True, self.latencies[lane]
        return False, None


@dataclass(frozen=True)
class _LoopTap:
    """One bit of a loopback path: source output → delayed target input.

    ``golden_bits[c]`` is the source output's golden value during cycle *c*,
    extracted once at injector construction.  The values in flight belong to
    a run: each forward loop owns its pipelines (:meth:`FaultInjector.new_pipelines`).
    """

    source_value_idx: int
    target_value_idx: int
    delay: int
    golden_bits: List[int]


class FaultInjector:
    """Forward SEU simulator bound to one netlist/testbench/golden trace.

    Parameters
    ----------
    netlist / testbench / golden / criterion:
        The design under test, its workload driver, the recorded fault-free
        trajectory, and the functional-failure definition.
    check_interval:
        Cycles between early-retirement convergence checks (trade-off:
        smaller intervals retire lanes sooner but check more often).
    fault_model:
        A :class:`~repro.faultinjection.faults.FaultModel`, a registry spec
        string (``"mbu:size=3,radius=1,seed=0"``), or ``None`` for the
        paper's single-bit SEU.  Lanes of models whose plans carry
        per-cycle forcing (stuck-at, intermittent) are excluded from
        convergence-based early retirement.

    The injector owns what one simulated cycle is.  Its cycle steps —
    :meth:`strike`, :meth:`seed_loopback`, :meth:`drive`, :meth:`force`,
    :meth:`observe` and the probes :meth:`diverging_rows`,
    :meth:`diverging_row_planes` and :meth:`diverging_slots` — are the one
    implementation both forward loops call: the naive batches
    (:meth:`run_batch`, :meth:`run_set_batch`) and
    :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`, which owns
    only the lanes.  Each loop owns its loopback pipelines and passes them in.
    """

    def __init__(
        self,
        netlist: Netlist,
        testbench: Testbench,
        golden: GoldenTrace,
        criterion: FailureCriterion,
        check_interval: int = 8,
        fault_model: "FaultModel | str | None" = None,
    ) -> None:
        self.netlist = netlist
        self.testbench = testbench
        self.golden = golden
        self.check_interval = max(1, check_interval)
        self.fault_model: Optional[FaultModel] = (
            None if fault_model is None else parse_fault_model(fault_model)
        )
        # The plain SEU keeps the original one-flip fast path (``None``
        # bound model); anything else compiles per-injection plans.
        self._bound_model: Optional[BoundFaultModel] = (
            self.fault_model.bind(netlist)
            if self.fault_model is not None and self.fault_model.name != "seu"
            else None
        )
        self.sim = CompiledSimulator(netlist, n_lanes=1)
        self._criterion = criterion.bind(netlist, self.sim)

        input_value_idx = [self.sim.net_index[n] for n in testbench.input_names]
        out_bit = {name: i for i, name in enumerate(netlist.outputs)}

        #: Resolved loopback taps, in the order of every run's pipelines.
        self.taps: List[_LoopTap] = []
        lb_target_inputs: Set[int] = set()
        for path in testbench.loopbacks:
            for src, dst in zip(path.sources, path.targets):
                bit = out_bit[src]
                self.taps.append(
                    _LoopTap(
                        source_value_idx=self.sim.net_index[src],
                        target_value_idx=self.sim.net_index[dst],
                        delay=path.delay,
                        golden_bits=[(out >> bit) & 1 for out in golden.outputs],
                    )
                )
                lb_target_inputs.add(self.sim.net_index[dst])
        # Inputs driven open-loop (everything except loopback targets).
        self._open_inputs = [
            (i, idx)
            for i, idx in enumerate(input_value_idx)
            if idx not in lb_target_inputs
        ]

        observables = criterion.observable_nets() + [
            src for path in testbench.loopbacks for src in path.sources
        ]
        relevant = relevant_flip_flops(netlist, observables)
        self.relevant_ff_names = relevant
        #: Indices of the relevant flip-flops, and their Q value rows.
        self.relevant_ffs: List[int] = [
            ff_index
            for ff_index, ff in enumerate(self.sim.flip_flops)
            if ff.name in relevant
        ]
        self.relevant_rows: List[int] = [self.sim._ff_q[i] for i in self.relevant_ffs]
        #: ``relevant_bits[c][k]`` (0 or 1) is the golden Q of the *k*-th
        #: relevant flip-flop at the start of cycle *c*: one ``bytes`` row
        #: per ``golden.ff_state`` entry, in :attr:`relevant_ffs` order.
        self.relevant_bits: List[bytes] = _golden_bits_table(
            golden.ff_state, len(self.sim.flip_flops), self.relevant_ffs
        )
        # Resolved SET propagation order (built on first run_set_batch).
        self._set_plan: Optional[List[Tuple[Callable, int, Tuple[int, ...]]]] = None

    # ----------------------------------------------------------------- API

    def ff_index(self, ff_name: str) -> int:
        """Index of a flip-flop by instance name (lane/state ordering)."""
        return self.sim.ff_index[ff_name]

    def injection_plan(self, ff_index: int, cycle: int) -> InjectionPlan:
        """The compiled plan executed for ``(cycle, ff_index)`` — the exact
        flips and forces any engine (and the brute-force oracle) replays."""
        if self._bound_model is None:
            return InjectionPlan(flips=(ff_index,))
        return self._bound_model.plan(ff_index, cycle)

    def _record_outcome(self, outcome: BatchOutcome) -> BatchOutcome:
        """Report one forward run's lane-cycle volume to the telemetry layer.

        Coarse-grained on purpose: two counter bumps per *batch* (which
        simulates hundreds of lane-cycles), so the overhead is unmeasurable
        with telemetry sinks detached.
        """
        registry = get_telemetry().registry
        registry.counter("sim.compiled.lane_cycles").inc(
            outcome.cycles_simulated * outcome.n_lanes
        )
        registry.counter("sim.compiled.forward_runs").inc()
        if self.fault_model is not None:
            registry.counter(f"fault.{self.fault_model.name}.injections").inc(
                outcome.n_lanes
            )
        return outcome

    def run_batch(
        self,
        cycle: int,
        ff_indices: Sequence[int],
    ) -> BatchOutcome:
        """Simulate one injection per lane, all struck at *cycle*.

        Each lane executes the configured fault model's plan for its
        flip-flop (a single flip for the default SEU, a cluster flip for
        MBUs, per-cycle forcing for stuck-at/intermittent faults).  Returns
        the per-lane failure mask.  The forward run stops at the end of the
        golden trace or as soon as every lane has failed or re-converged to
        golden, whichever comes first; lanes with active forcing never count
        as converged.
        """
        golden = self.golden
        if not 0 <= cycle < golden.n_cycles:
            raise ValueError(f"injection cycle {cycle} outside trace [0, {golden.n_cycles})")
        sim = self.sim
        sim.resize_lanes(len(ff_indices))
        sim.load_ff_state_packed(golden.ff_state[cycle])
        forcing = self.strike(cycle, enumerate(ff_indices))
        pipelines = self.new_pipelines()
        self.seed_loopback(pipelines, cycle, sim.mask)
        return self._forward(cycle, cycle, pipelines, forcing, 0, {})

    def run_set_batch(
        self,
        cycle: int,
        net_names: Sequence[str],
    ) -> BatchOutcome:
        """Simulate Single-Event Transients: lane *j* flips net ``net_names[j]``.

        Cycle-level SET model: the transient inverts the struck combinational
        net for the whole injection cycle, propagates through the downstream
        cone (subject to **logical de-rating** — controlling values on other
        gate inputs mask it), may corrupt primary outputs directly, and is
        latched by whatever flip-flops sample it on the clock edge.  From the
        next cycle on the run continues exactly like an SEU forward
        simulation.  Electrical and sub-cycle temporal de-rating are below
        this model's time resolution, as discussed in the paper's section II.
        """
        golden = self.golden
        if not 0 <= cycle < golden.n_cycles:
            raise ValueError(f"injection cycle {cycle} outside trace [0, {golden.n_cycles})")
        sim = self.sim
        sim.resize_lanes(len(net_names))
        sim.load_ff_state_packed(golden.ff_state[cycle])
        pipelines = self.new_pipelines()
        self.seed_loopback(pipelines, cycle, sim.mask)

        # Injection cycle: settle fault-free, then force the struck nets and
        # re-evaluate the downstream cones with the forces held.
        self.drive(cycle, pipelines)
        sim.eval_comb()
        forces: Dict[int, int] = {}
        for lane, net in enumerate(net_names):
            idx = sim.net_index[net]
            forces[idx] = forces.get(idx, 0) | 1 << lane
        self._propagate_forced(forces, sim.mask)

        failed = self.observe(cycle, pipelines)
        sim.tick()
        # Continue as a plain forward run (no forcing) from the next cycle.
        latencies = {lane: 0 for lane in set_lanes(failed)}
        return self._forward(cycle, cycle + 1, pipelines, {}, failed, latencies)

    def _forward(
        self,
        cycle: int,
        start: int,
        pipelines: List[List[int]],
        forcing: Dict[int, Tuple[InjectionPlan, int]],
        failed: int,
        latencies: Dict[int, int],
    ) -> BatchOutcome:
        """The per-cycle forward loop of both batch kinds: simulate lanes
        struck at *cycle* from cycle *start* on, with state and *pipelines*
        loaded and *failed*/*latencies* holding the verdicts of cycles
        already settled.  *forcing* holds the lanes :meth:`strike` returned."""
        sim = self.sim
        mask = sim.mask
        end = self.golden.n_cycles
        force_vec = lanes_mask(list(forcing))
        check = self.check_interval
        forced_writes = 0
        c = start
        while c < end:
            self.drive(c, pipelines)
            if forcing:
                forced_writes += self.force(c, forcing)
            sim.eval_comb()
            newly = self.observe(c, pipelines) & ~failed
            if newly:
                failed |= newly
                latency = c - cycle
                for lane in set_lanes(newly):
                    latencies[lane] = latency
            sim.tick()
            c += 1
            if (c - cycle) % check == 0:
                diverged = self.diverging_rows(c, mask)
                diverged |= self.diverging_slots(c, pipelines, mask)
                # Forced lanes are only done once failed: a lane whose state
                # matches golden right now can still be re-disturbed by a
                # later duty-on cycle.
                if (failed | (~diverged & ~force_vec)) & mask == mask:
                    break
        if forced_writes:
            get_telemetry().registry.counter(
                f"fault.{self.fault_model.name}.forced_cycles"
            ).inc(forced_writes)
        return self._record_outcome(
            BatchOutcome(
                failed_mask=failed,
                n_lanes=sim.n_lanes,
                cycles_simulated=c - cycle,
                latencies=latencies,
            )
        )

    def _propagate_forced(self, forces: Dict[int, int], mask: int) -> None:
        """Apply per-lane net inversions and re-settle the downstream logic.

        Walks the combinational cells in topological order, re-evaluating any
        cell with a dirty input; a forced net stays inverted even if its
        driver is re-evaluated (the transient dominates for the cycle).
        """
        sim = self.sim
        values = sim.values
        if self._set_plan is None:
            # Resolve the topological walk's net indices once; rebuilding
            # them per batch dominated short SET sweeps.
            self._set_plan = [
                (
                    cell.ctype.evaluate,
                    sim.net_index[cell.output_net()],
                    tuple(sim.net_index[n] for n in cell.input_nets()),
                )
                for cell_name in self.netlist.topological_comb_order()
                for cell in (self.netlist.cells[cell_name],)
            ]
        dirty = set()
        for idx, lane_bits in forces.items():
            values[idx] = values[idx] ^ lane_bits
            dirty.add(idx)
        for evaluate, out_idx, in_idxs in self._set_plan:
            if not any(i in dirty for i in in_idxs):
                continue
            new_value = evaluate([values[i] for i in in_idxs], mask)
            new_value = new_value ^ forces.get(out_idx, 0)
            if (new_value ^ values[out_idx]) & mask:
                values[out_idx] = new_value
                dirty.add(out_idx)

    # ---------------------------------------------------------- cycle steps
    #
    # A simulated cycle is drive -> force -> settle -> observe -> tick; a
    # lane is struck (and its loopback pipeline seeded) before its first
    # cycle, and retirement checks probe rows and slots between cycles.
    # The settle and tick are the loop's own: the full eval_comb and tick in
    # the naive batches, observed_settle and relevant_tick in a scheduled
    # pass.

    def new_pipelines(self) -> List[List[int]]:
        """Empty loopback pipelines for one run: ``delay`` slots per tap,
        slot ``c % delay`` holding the value in flight from cycle *c*."""
        return [[0] * tap.delay for tap in self.taps]

    def seed_loopback(self, pipelines: List[List[int]], cycle: int, lanes: int) -> None:
        """Load the golden values in flight at *cycle* (zero before the
        trace starts) into *pipelines* on the lane vector *lanes*; the other
        lanes keep theirs."""
        keep = lanes ^ self.sim.mask
        for tap, pipeline in zip(self.taps, pipelines):
            golden_bits = tap.golden_bits
            for past in range(cycle - tap.delay, cycle):
                slot = past % tap.delay
                bit = golden_bits[past] if past >= 0 else 0
                pipeline[slot] = (pipeline[slot] & keep) | (lanes if bit else 0)

    def strike(
        self, cycle: int, lane_ffs: Iterable[Tuple[int, int]]
    ) -> Dict[int, Tuple[InjectionPlan, int]]:
        """Inject the fault-model plan of each ``(lane, ff_index)`` struck at
        *cycle*: its flips are applied to the lane's Q rows now.  Returns
        ``{lane: (plan, cycle)}`` for the plans that carry forcing, the
        schedule :meth:`force` re-asserts."""
        values = self.sim.values
        ff_q = self.sim._ff_q
        bound = self._bound_model
        forcing: Dict[int, Tuple[InjectionPlan, int]] = {}
        for lane, ff_index in lane_ffs:
            if bound is None:
                values[ff_q[ff_index]] ^= 1 << lane
                continue
            plan = bound.plan(ff_index, cycle)
            for f in plan.flips:
                values[ff_q[f]] ^= 1 << lane
            if plan.forces:
                forcing[lane] = (plan, cycle)
        return forcing

    def drive(self, cycle: int, pipelines: List[List[int]]) -> None:
        """Apply *cycle*'s golden open-loop stimulus to every lane, feed each
        loopback target from its pipeline, and hold the clocks at 0."""
        sim = self.sim
        values = sim.values
        mask = sim.mask
        vec = self.golden.applied_inputs[cycle]
        for bit_pos, value_idx in self._open_inputs:
            values[value_idx] = mask if (vec >> bit_pos) & 1 else 0
        for tap, pipeline in zip(self.taps, pipelines):
            values[tap.target_value_idx] = pipeline[cycle % tap.delay]
        for clk in sim._clock_nets:
            values[clk] = 0

    def force(self, cycle: int, forcing: Dict[int, Tuple[InjectionPlan, int]]) -> int:
        """Re-assert every forcing plan of *forcing* (:meth:`strike`'s
        schedule) that is on its duty at *cycle*, before the settle: the
        latched value is corrupted for this cycle.  Returns the number of
        lanes forced."""
        values = self.sim.values
        ff_q = self.sim._ff_q
        forced = 0
        for lane, (plan, struck) in forcing.items():
            if plan.force_active(cycle - struck):
                lv = 1 << lane
                for f, v in plan.forces:
                    q = ff_q[f]
                    values[q] = (values[q] & ~lv) | (lv if v else 0)
                forced += 1
        return forced

    def observe(self, cycle: int, pipelines: List[List[int]]) -> int:
        """After the settle of *cycle*: latch each loopback source into its
        pipeline and return the lanes the failure criterion flags."""
        values = self.sim.values
        for tap, pipeline in zip(self.taps, pipelines):
            pipeline[cycle % tap.delay] = values[tap.source_value_idx]
        return self._criterion.evaluate(values, self.golden.outputs[cycle], self.sim.mask)

    def diverging_rows(self, cycle: int, lanes: int) -> int:
        """Lanes of *lanes* whose relevant flip-flop state differs from
        golden at the start of *cycle*
        (:meth:`~repro.sim.compiled.CompiledSimulator.diverging_rows`)."""
        return self.sim.diverging_rows(self.relevant_rows, self.relevant_bits[cycle], lanes)

    def diverging_row_planes(self, cycle: int, lanes: int) -> Tuple[int, int, List[int]]:
        """:meth:`diverging_rows` that also locates a lone deviating row
        (:meth:`~repro.sim.compiled.CompiledSimulator.diverging_row_planes`)."""
        return self.sim.diverging_row_planes(
            self.relevant_rows, self.relevant_bits[cycle], lanes
        )

    def diverging_slots(self, cycle: int, pipelines: List[List[int]], lanes: int) -> int:
        """Lanes of *lanes* whose loopback values in flight at *cycle*
        differ from the golden record."""
        mask = self.sim.mask
        diff = 0
        for tap, pipeline in zip(self.taps, pipelines):
            golden_bits = tap.golden_bits
            for past in range(max(0, cycle - tap.delay), cycle):
                diff |= pipeline[past % tap.delay] ^ (mask if golden_bits[past] else 0)
        return diff & lanes

    # ------------------------------------------------- scheduled-pass kernels

    def observed_roots(self) -> Tuple[List[int], List[int]]:
        """``(roots, latched)`` of :attr:`observed_settle`: the criterion
        nets and loopback tap sources, and the relevant flip-flops (indices)
        whose D/RN pins the settle also computes."""
        roots = [idx for idx, _bit in self._criterion.valid_pairs]
        roots += [idx for idx, _bit in self._criterion.data_pairs]
        roots += [tap.source_value_idx for tap in self.taps]
        return roots, self.relevant_ffs

    @cached_property
    def observed_plan(self) -> ConePlan:
        """The :meth:`~repro.sim.compiled.CompiledSimulator.cone_plan` of
        :meth:`observed_roots`, shared by :attr:`observed_settle` and
        :attr:`release_cycles`."""
        return self.sim.cone_plan(*self.observed_roots())

    @cached_property
    def observed_settle(self) -> Callable[[List[int], int], None]:
        """The settle of every scheduled cycle: only the cells a verdict can read.

        That is the combinational fan-in of :meth:`observed_roots`, with
        each register enable's next-state logic skipped while the enable is
        0 on every lane
        (:meth:`~repro.sim.compiled.CompiledSimulator.compile_cone_eval`).
        Every other cell feeds only flip-flops outside the relevant set,
        whose values no verdict, probe or relevant cone reads, so they are
        left stale.  On a circuit whose every flip-flop is relevant this is
        the simulator's own cached ``_eval``.  Built on first use, like the
        other scheduled-pass kernels.
        """
        return self.sim.compile_cone_eval(self.observed_plan)

    @cached_property
    def release_cycles(self) -> List[Optional[array]]:
        """Per flip-flop, the cycle from which each injection needs a lane:
        the verdicts the netlist decides without simulation.

        For a plain SEU ``(f, t)``, entry ``release_cycles[f][t]`` is

        * ``-1`` when *f* is outside the relevant set: the flip never
          reaches a verdict, so the injection fails nowhere and needs no
          lane at all;
        * ``t*`` > *t* when *t* lies in a *hold run* of *f*: ``(f, t)``
          holds the state of ``(f, t*)`` from ``t*`` on and observes golden
          values before, so it has that injection's verdict, with ``t*`` −
          *t* more cycles of latency;
        * *t* otherwise.

        ``None`` stands for *t* at every cycle.  Every entry is ``None``
        under a fault model other than the plain SEU.

        A cycle *t* is a *hold cycle* of a relevant *f* when its flip can
        only pass into *t* + 1: *f* has a hold mux ``D = MUX(Q, new, en)``
        (:attr:`observed_plan`); every cone cell reading its Q is gated,
        so only the gating enables' hold muxes can latch the flip; Q is no
        root and no D/RN pin; no gating enable (*f*'s own included) has Q
        in its combinational fan-in; and at *t* every gating enable is 0
        and *f*'s reset inactive in the golden run, and *t* + 1 is still
        in the trace.  Then only *f*'s own D sees the flip at the tick of
        *t*, and the state at *t* + 1 is ``(f, t + 1)``'s.  ``t*`` is the
        first cycle at or after *t* that is no hold cycle.

        Built on first use, like the scheduled-pass kernels; flip-flops
        whose hold cycles coincide share one ``array`` (int16 while the
        trace is shorter than 2**15 cycles).
        """
        sim = self.sim
        n_cycles = self.golden.n_cycles
        table: List[Optional[array]] = [None] * len(sim.flip_flops)
        if self._bound_model is not None:
            return table
        typecode = "h" if n_cycles < 1 << 15 else "q"
        never = array(typecode, [-1]) * n_cycles
        for f in set(range(len(table))).difference(self.relevant_ffs):
            table[f] = never
        enables_of = self._hold_enables()
        if not enables_of:
            return table
        rows = self.golden.net_rows(sim)
        runs: Dict[int, array] = {}
        for f, enables in enables_of.items():
            hold_bits = lane_mask(n_cycles) >> 1 & ~reduce(or_, map(rows.__getitem__, enables))
            rn = sim._ff_rn[f]
            if rn is not None:
                hold_bits &= rows[rn]
            if hold_bits:
                if hold_bits not in runs:
                    runs[hold_bits] = _run_ends(hold_bits, n_cycles, typecode)
                table[f] = runs[hold_bits]
        return table

    def _hold_enables(self) -> Dict[int, List[int]]:
        """The relevant flip-flops that can have hold cycles
        (:attr:`release_cycles`), each with its gating enables (rows)."""
        sim = self.sim
        plan = self.observed_plan
        roots, latched = self.observed_roots()
        pins = set(roots).union(sim._ff_d[i] for i in latched)
        pins.update(sim._ff_rn[i] for i in latched if sim._ff_rn[i] is not None)
        netlist = self.netlist
        index = sim.net_index
        held = set(plan.holds.values()).difference(pins)
        # The enables gating each held Q's cone readers; None for a reader
        # no enable gates.
        enables_of: Dict[int, Set[Optional[int]]] = {q: set() for q in held}
        for name in plan.cells:
            for net in netlist.cells[name].input_nets():
                enables = enables_of.get(index[net])
                if enables is not None:
                    enables.add(plan.gate.get(name))
        candidates: Dict[int, List[int]] = {}
        for f in self.relevant_ffs:
            enables = enables_of.get(sim._ff_q[f])
            if enables is not None and None not in enables:
                candidates[f] = sorted(enables)
        # Backward closure of each enable to the Q rows it reads: a flip of
        # one of those would change the enable itself.
        names = list(netlist.nets)
        fanin: Dict[int, Set[int]] = {}
        for enable in {e for enables in candidates.values() for e in enables}:
            seen = {enable}
            stack = [enable]
            q_rows = fanin[enable] = set()
            while stack:
                row = stack.pop()
                driver = netlist.nets[names[row]].driver
                if driver is None:
                    continue
                cell = netlist.cells[driver.cell]
                if cell.is_sequential:
                    q_rows.add(row)
                    continue
                for net in cell.input_nets():
                    if index[net] not in seen:
                        seen.add(index[net])
                        stack.append(index[net])
        return {
            f: enables
            for f, enables in candidates.items()
            if not any(sim._ff_q[f] in fanin[e] for e in enables)
        }

    @cached_property
    def relevant_tick(self) -> Callable[[List[int], int], None]:
        """The clock edge of every scheduled cycle: latches the relevant
        flip-flops only.  The other Q rows are dead in a scheduled pass (no
        cone the observed settle evaluates reads them), so they are never
        latched; on a circuit whose every flip-flop is relevant this is the
        simulator's own tick."""
        return self.sim.compile_partial_tick(self.relevant_ffs)

    @cached_property
    def activation_loader(self) -> Callable[[List[int], int, int, bytes], None]:
        """Generated per-lane golden-state loader (one statement per
        relevant flip-flop).

        ``_load(v, am, nam, g)`` sets, on the lanes selected by the lane
        vectors ``am``/``nam = am ^ mask``, the Q of the *k*-th relevant
        flip-flop to its golden bit ``g[k]`` (a row of :attr:`relevant_bits`)
        — the scatter half of mixed-cycle activation, without a
        per-flip-flop Python loop.  Non-relevant Q rows are dead in a
        scheduled pass, so they are not loaded.
        """
        body = [
            f"v[{q}] = (v[{q}] & nam) | (am if g[{k}] else 0)"
            for k, q in enumerate(self.relevant_rows)
        ]
        filename = f"<repro-load:{self.netlist.name}>"
        return bind_chunks(compile_chunked("_load", "v, am, nam, g", body, filename), "_load")
