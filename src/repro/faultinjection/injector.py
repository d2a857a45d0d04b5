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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import get_telemetry
from ..sim.compiled import CompiledSimulator
from ..sim.logic import set_lanes
from ..sim.testbench import GoldenTrace, Testbench
from .classify import FailureCriterion
from .faults import BoundFaultModel, FaultModel, InjectionPlan, parse_fault_model

__all__ = ["FaultInjector", "BatchOutcome", "relevant_flip_flops"]


def _golden_bits_table(
    ff_state: Sequence[int], n_ffs: int, ff_indices: Sequence[int]
) -> List[bytes]:
    """The bits *ff_indices* of every packed state in *ff_state*, one
    ``bytes`` row of 0/1 values per state, unpacked in one NumPy pass."""
    n_bytes = (n_ffs + 7) // 8
    packed = np.frombuffer(
        b"".join(state.to_bytes(n_bytes, "little") for state in ff_state),
        dtype=np.uint8,
    ).reshape(len(ff_state), n_bytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return [row.tobytes() for row in bits[:, np.asarray(ff_indices, dtype=np.intp)]]


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


@dataclass
class _LoopTap:
    """One bit of a loopback path: source output → delayed target input.

    ``golden_bits[c]`` is the source output's golden value during cycle *c*,
    extracted once at injector construction — batch setup and loopback
    divergence checks used to re-shift the packed golden output vector on
    every call.
    """

    source_value_idx: int
    target_value_idx: int
    source_out_bit: int
    delay: int
    slots: List[int]
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

        self._input_value_idx = [self.sim.net_index[n] for n in testbench.input_names]
        out_bit = {name: i for i, name in enumerate(netlist.outputs)}

        self._taps: List[_LoopTap] = []
        lb_target_inputs: Set[int] = set()
        for path in testbench.loopbacks:
            for src, dst in zip(path.sources, path.targets):
                bit = out_bit[src]
                self._taps.append(
                    _LoopTap(
                        source_value_idx=self.sim.net_index[src],
                        target_value_idx=self.sim.net_index[dst],
                        source_out_bit=bit,
                        delay=path.delay,
                        slots=[0] * path.delay,
                        golden_bits=[(out >> bit) & 1 for out in golden.outputs],
                    )
                )
                lb_target_inputs.add(self.sim.net_index[dst])
        # Inputs driven open-loop (everything except loopback targets).
        self._open_inputs = [
            (i, idx)
            for i, idx in enumerate(self._input_value_idx)
            if idx not in lb_target_inputs
        ]

        observables = criterion.observable_nets() + [
            src for path in testbench.loopbacks for src in path.sources
        ]
        relevant = relevant_flip_flops(netlist, observables)
        self.relevant_ff_names = relevant
        self._relevant_pairs: List[Tuple[int, int]] = []
        for ff_index, ff in enumerate(self.sim.flip_flops):
            if ff.name in relevant:
                q_idx = self.sim.net_index[ff.output_net()]
                self._relevant_pairs.append((q_idx, ff_index))
        #: ``relevant_bits[c][k]`` (0 or 1) is the golden Q of the *k*-th
        #: relevant flip-flop at the start of cycle *c*: one ``bytes`` row
        #: per ``golden.ff_state`` entry, in relevant-pair order.
        self.relevant_bits: List[bytes] = _golden_bits_table(
            golden.ff_state,
            len(self.sim.flip_flops),
            [ff_index for _q_idx, ff_index in self._relevant_pairs],
        )
        # Resolved SET propagation order (built on first run_set_batch).
        self._set_plan: Optional[List[Tuple[Callable, int, Tuple[int, ...]]]] = None

    # ----------------------------------------------------------------- API

    @property
    def taps(self) -> List[_LoopTap]:
        """Resolved loopback taps (read-only; the scheduler reuses them)."""
        return self._taps

    @property
    def criterion_valid_pairs(self) -> List[Tuple[int, int]]:
        """Bound criterion strobe pairs ``(value_idx, golden_bit)``."""
        return self._criterion.valid_pairs

    @property
    def criterion_data_pairs(self) -> List[Tuple[int, int]]:
        """Bound criterion payload pairs ``(value_idx, golden_bit)``."""
        return self._criterion.data_pairs

    def ff_index(self, ff_name: str) -> int:
        """Index of a flip-flop by instance name (lane/state ordering)."""
        return self.sim.ff_index[ff_name]

    @property
    def bound_model(self) -> Optional[BoundFaultModel]:
        """The netlist-bound fault model, or ``None`` for the SEU fast path."""
        return self._bound_model

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
        bound = self._bound_model
        plans: Optional[List[InjectionPlan]] = None
        if bound is not None:
            plans = [bound.plan(ff_idx, cycle) for ff_idx in ff_indices]

        sim = self.sim
        sim.resize_lanes(len(ff_indices))
        sim.load_ff_state_packed(golden.ff_state[cycle])
        if plans is None:
            for lane, ff_idx in enumerate(ff_indices):
                sim.flip_ff(ff_idx, 1 << lane)
        else:
            for lane, plan in enumerate(plans):
                for ff_idx in plan.flips:
                    sim.flip_ff(ff_idx, 1 << lane)

        # Per-lane forcing schedule: (plan, lane vector, Q rows to force).
        force_lanes: List[Tuple[InjectionPlan, int, List[Tuple[int, int]]]] = []
        if plans is not None:
            ffs = sim.flip_flops
            for lane, plan in enumerate(plans):
                if plan.forces:
                    rows = [
                        (sim.net_index[ffs[f].output_net()], v)
                        for f, v in plan.forces
                    ]
                    force_lanes.append((plan, 1 << lane, rows))

        self._prime_taps(cycle, sim.mask)
        return self._forward(cycle, cycle, force_lanes=force_lanes)

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
        mask = sim.mask
        values = sim.values

        sim.load_ff_state_packed(golden.ff_state[cycle])
        self._prime_taps(cycle, mask)

        # Injection cycle: settle fault-free, then force the struck nets and
        # re-evaluate the downstream cones with the forces held.
        self._drive_inputs(cycle, mask)
        sim.eval_comb()
        forces: Dict[int, int] = {}
        for lane, net in enumerate(net_names):
            idx = sim.net_index[net]
            forces[idx] = forces.get(idx, 0) | 1 << lane
        self._propagate_forced(forces, mask)

        failed = self._criterion.evaluate(values, golden.outputs[cycle], mask)
        for tap in self._taps:
            tap.slots[cycle % tap.delay] = values[tap.source_value_idx]
        sim.tick()
        # Continue as a plain forward run (no forcing) from the next cycle.
        latencies = {lane: 0 for lane in set_lanes(failed)}
        return self._forward(cycle, cycle + 1, failed, latencies)

    def _forward(
        self,
        cycle: int,
        start: int,
        failed: int = 0,
        latencies: Optional[Dict[int, int]] = None,
        force_lanes: Sequence[Tuple[InjectionPlan, int, List[Tuple[int, int]]]] = (),
    ) -> BatchOutcome:
        """The per-cycle forward loop of both batch kinds: simulate lanes
        struck at *cycle* from cycle *start* on, with state and loopback
        pipelines loaded and *failed*/*latencies* holding the verdicts of
        cycles already settled.  Each *force_lanes* entry ``(plan, lane
        vector, Q rows)`` re-asserts one lane's forced values."""
        golden = self.golden
        sim = self.sim
        mask = sim.mask
        values = sim.values
        end = golden.n_cycles
        if latencies is None:
            latencies = {}
        force_vec = 0
        for _plan, lv, _rows in force_lanes:
            force_vec |= lv

        criterion = self._criterion
        check = self.check_interval
        forced_writes = 0
        c = start
        while c < end:
            self._drive_inputs(c, mask)
            for plan, lv, rows in force_lanes:
                # Re-assert the fault on the lane's Q rows before the settle
                # (the latched value is corrupted for this cycle).
                if plan.force_active(c - cycle):
                    for q_idx, v in rows:
                        values[q_idx] = (values[q_idx] & ~lv) | (lv if v else 0)
                    forced_writes += 1
            sim.eval_comb()
            newly = criterion.evaluate(values, golden.outputs[c], mask) & ~failed
            if newly:
                failed |= newly
                latency = c - cycle
                for lane in set_lanes(newly):
                    latencies[lane] = latency
            for tap in self._taps:
                tap.slots[c % tap.delay] = values[tap.source_value_idx]
            sim.tick()
            c += 1
            if (c - cycle) % check == 0:
                diverged = self._divergence(c, mask) | self._loopback_divergence(c, mask)
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

    # ------------------------------------------------------------ internals

    def _drive_inputs(self, cycle: int, mask: int) -> None:
        """Apply *cycle*'s golden open-loop stimulus to every lane and feed
        each loopback target from its tap's in-flight value."""
        vec = self.golden.applied_inputs[cycle]
        values = self.sim.values
        for bit_pos, value_idx in self._open_inputs:
            values[value_idx] = mask if (vec >> bit_pos) & 1 else 0
        for tap in self._taps:
            values[tap.target_value_idx] = tap.slots[cycle % tap.delay]

    def _prime_taps(self, cycle: int, mask: int) -> None:
        """Load every loopback pipeline with the golden values in flight at
        *cycle* (zero before the trace starts)."""
        for tap in self._taps:
            golden_bits = tap.golden_bits
            for past in range(cycle - tap.delay, cycle):
                bit = golden_bits[past] if past >= 0 else 0
                tap.slots[past % tap.delay] = mask if bit else 0

    def _divergence(self, cycle: int, mask: int) -> int:
        """Per-lane mask of lanes whose relevant FF state differs from golden
        at the start of *cycle*."""
        diff = 0
        values = self.sim.values
        grel = self.relevant_bits[cycle]
        # Early-exit once every lane diverged, probing every 32 flip-flops.
        for k, (q_idx, _ff_index) in enumerate(self._relevant_pairs):
            golden = mask if grel[k] else 0
            diff |= values[q_idx] ^ golden
            if (k & 31) == 31 and diff & mask == mask:
                return diff
        return diff

    def _loopback_divergence(self, next_cycle: int, mask: int) -> int:
        """Lanes whose in-flight loopback values differ from the golden record."""
        diff = 0
        golden = self.golden
        for tap in self._taps:
            golden_bits = tap.golden_bits
            for past in range(max(0, next_cycle - tap.delay), next_cycle):
                if past >= golden.n_cycles:
                    continue
                bit = golden_bits[past]
                diff |= tap.slots[past % tap.delay] ^ (mask if bit else 0)
        return diff & mask
