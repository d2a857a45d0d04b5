"""Differential verification harness.

Runs every production simulation engine and the independent reference
oracle on identical fuzzed stimulus and reports the *first divergence* as a
(net, cycle, per-engine values) record:

* **lane differential** — the compiled simulator
  (:class:`~repro.sim.compiled.CompiledSimulator`) with several
  bit-parallel lanes, each lane carrying a *different* random stimulus
  stream, checked net-by-net and cycle-by-cycle against one
  :class:`~repro.verify.oracle.OracleSimulator` per lane.  This covers both
  the generated gate code and lane independence of the bit-parallel trick;
* **event differential** — :class:`~repro.sim.event.EventDrivenSimulator`
  driven by an explicit clock waveform, compared against the oracle on every
  net whose three-valued value has resolved (X before reset is expected and
  skipped, a resolved-but-different value is a divergence);
Four injection replay modes then share one referee: the naive
:func:`naive_verdicts` (one
:meth:`~repro.faultinjection.injector.FaultInjector.run_batch` per
injection cycle, with its lane packing, early retirement and reactive
loopback replay) and :func:`bruteforce_verdicts` (a single-lane oracle
re-simulation of each injection's plan that uses none of those
optimisations).  Any verdict or error-latency mismatch is a divergence:

* **metamorphic injector check** (:func:`run_injector_check`) — naive
  batches vs. brute force, every flip-flop at a few seeded cycles;
* **scheduled-vs-naive replay** (:func:`run_scheduler_check`) — the
  adaptive injection scheduler
  (:class:`~repro.faultinjection.scheduler.AdaptiveScheduler`: mixed-cycle
  lane refill, observed-cone settle, latent-state lane merging at every
  retirement check) vs. naive batches, with a small lane budget that
  forces refill and deferral across passes.  The same
  requests, split into three scheduler request groups that share every
  pass, must reproduce the single-group verdicts.  Each pass starts at its
  lane cap here, so elastic width changes (growth, truncation) are
  exercised by the ``MIN_WIDTH``-patched tests in
  ``tests/test_scheduler.py`` instead;
* **fault-model check** (:func:`run_fault_model_check`) — batches and the
  scheduler vs. brute force under every registered non-SEU model;
* **generated-circuit check** (:func:`run_generated_check`) — batches vs.
  brute force and the scheduler vs. batches on a generated composite
  circuit's own workload;
* **hold-run replay** (:func:`run_hold_run_check`) — every injection the
  injector's table parks in a hold run
  (:attr:`~repro.faultinjection.injector.FaultInjector.release_cycles`)
  vs. its own naive batch: both the verdict the table implies and the
  scheduler's, on the MAC's tiny and full netlists.

``verify_seed``/``verify_seeds`` run the first two differentials and the
three fuzz replay modes over fuzzed circuits and are what ``python -m
repro.experiments verify`` and the CI fuzz stage drive; the CLI then runs
the generated-circuit check and the hold-run replay once.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..faultinjection.classify import AnyOutputCriterion
from ..faultinjection.faults import InjectionPlan
from ..faultinjection.injector import FaultInjector
from ..faultinjection.scheduler import AdaptiveScheduler
from ..netlist.core import Netlist
from ..obs import get_telemetry
from ..sim.compiled import CompiledSimulator
from ..sim.event import EventDrivenSimulator
from ..sim.logic import ONE, X, ZERO
from ..sim.testbench import GoldenTrace, Testbench
from .fuzzer import (
    CLOCK_NET,
    FUZZ_SCALES,
    FuzzSpec,
    generate_netlist,
    generate_schedule,
    generate_testbench,
)
from .oracle import OracleSimulator

__all__ = [
    "Divergence",
    "SeedReport",
    "VerifySummary",
    "run_lane_differential",
    "run_event_differential",
    "run_injector_check",
    "run_scheduler_check",
    "run_fault_model_check",
    "brute_force_fault",
    "naive_verdicts",
    "bruteforce_verdicts",
    "FAULT_MODEL_CHECK_SPECS",
    "run_generated_check",
    "HOLD_RUN_WORKLOADS",
    "run_hold_run_check",
    "verify_seed",
    "verify_seeds",
]


@dataclass(frozen=True)
class Divergence:
    """First point where two engines disagree on one fuzzed circuit.

    ``values`` maps an engine label (``"compiled"``, ``"event"``,
    ``"oracle"``, ``"injector"``, ``"bruteforce"``) to the value it saw.
    ``net`` is ``None`` for whole-run disagreements (injection verdicts).
    """

    kind: str
    cycle: int
    net: Optional[str]
    values: Dict[str, object]
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"net {self.net!r} " if self.net else ""
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"[{self.kind}] {where}cycle {self.cycle}: {pairs} {self.detail}"


@dataclass
class SeedReport:
    """Outcome of all differential checks for one fuzz seed."""

    seed: int
    n_cells: int
    n_ffs: int
    n_cycles: int
    comparisons: int = 0
    injections_checked: int = 0
    #: Requests that rode a merged lane in the scheduled-vs-naive replay,
    #: summed over its single-group and its three-group run.
    merged: int = 0
    #: Requests of the scheduled-vs-naive replay that strike a flip-flop
    #: outside the relevant set (answered without a lane; a Q row a
    #: scheduled pass never loads or latches), counted once per request.
    nonrelevant: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class VerifySummary:
    """Aggregate over a seed sweep (what the CLI and benchmark report)."""

    n_seeds: int = 0
    n_comparisons: int = 0
    n_injections_checked: int = 0
    n_merged: int = 0
    n_nonrelevant: int = 0
    wall_seconds: float = 0.0
    failing: List[SeedReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failing

    def comparisons_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_comparisons / self.wall_seconds


# ----------------------------------------------------------- lane differential


def _comparable_nets(netlist: Netlist) -> List[str]:
    """Nets worth comparing: everything except the clock roots."""
    clocks = set(netlist.clocks)
    return [name for name in netlist.nets if name not in clocks]


def run_lane_differential(
    netlist: Netlist,
    spec: FuzzSpec,
    n_lanes: int = 3,
) -> Tuple[List[Divergence], int]:
    """The compiled simulator (one stimulus per lane) vs. one oracle per lane.

    Returns ``(divergences, comparisons)``; the run ends at the first
    mismatching (net, cycle, lane).
    """
    schedules = [generate_schedule(netlist, spec, lane=j) for j in range(n_lanes)]
    sim = CompiledSimulator(netlist, n_lanes=n_lanes)
    sim.reset()
    oracles = [OracleSimulator(netlist) for _ in range(n_lanes)]
    for oracle in oracles:
        oracle.reset()

    nets = _comparable_nets(netlist)
    input_names = list(netlist.inputs)
    divergences: List[Divergence] = []
    comparisons = 0
    for cycle in range(spec.n_cycles):
        for i, name in enumerate(input_names):
            if name == CLOCK_NET:
                continue
            lanes_value = 0
            for j in range(n_lanes):
                bit = (schedules[j][cycle] >> i) & 1
                lanes_value |= bit << j
                oracles[j].set_input(name, bit)
            sim.set_input_lanes(name, lanes_value)
        sim.eval_comb()
        for oracle in oracles:
            oracle.eval_comb()
        for name in nets:
            packed = sim.get(name)
            for j in range(n_lanes):
                comparisons += 1
                got = (packed >> j) & 1
                want = oracles[j].values[name]
                if got != want:
                    divergences.append(
                        Divergence(
                            kind="compiled-vs-oracle",
                            cycle=cycle,
                            net=name,
                            values={"compiled": got, "oracle": want},
                            detail=f"lane {j} of {n_lanes}",
                        )
                    )
                    return divergences, comparisons
        sim.tick()
        for oracle in oracles:
            oracle.tick()
    return divergences, comparisons


# ---------------------------------------------------------- event differential


def run_event_differential(
    netlist: Netlist, spec: FuzzSpec
) -> Tuple[List[Divergence], int]:
    """Event-driven engine vs. oracle on the lane-0 stimulus.

    The event engine starts every net at X (power-up before reset); a net is
    only compared once its value has resolved to 0/1.  A resolved value that
    disagrees with the oracle is a divergence — exact X-propagation can only
    resolve to the value every binary completion agrees on, and the oracle's
    all-zero power-up is one such completion.
    """
    schedule = generate_schedule(netlist, spec, lane=0)
    event = EventDrivenSimulator(netlist)
    oracle = OracleSimulator(netlist)
    oracle.reset()

    # Unit-delay settling needs one time unit per logic level; size the clock
    # period so each half-period covers the deepest cone with slack.
    depth = netlist.stats().max_logic_depth
    half = depth + 6
    period = 2 * half

    nets = _comparable_nets(netlist)
    input_names = [n for n in netlist.inputs if n != CLOCK_NET]
    input_bit = {n: i for i, n in enumerate(netlist.inputs)}
    divergences: List[Divergence] = []
    comparisons = 0
    for cycle in range(spec.n_cycles):
        t_base = cycle * period
        event.schedule(t_base, CLOCK_NET, ZERO)
        for name in input_names:
            bit = (schedule[cycle] >> input_bit[name]) & 1
            event.schedule(t_base, name, ONE if bit else ZERO)
            oracle.set_input(name, bit)
        event.run_until(t_base + half - 1)
        oracle.eval_comb()
        for name in nets:
            resolved = event.values[name]
            if resolved == X:
                continue
            comparisons += 1
            if resolved != oracle.values[name]:
                divergences.append(
                    Divergence(
                        kind="event-vs-oracle",
                        cycle=cycle,
                        net=name,
                        values={"event": resolved, "oracle": oracle.values[name]},
                    )
                )
                return divergences, comparisons
        event.schedule(t_base + half, CLOCK_NET, ONE)
        event.run_until(t_base + period - 1)
        oracle.tick()
    return divergences, comparisons


# ------------------------------------------------------------- the referee

Verdict = Tuple[bool, Optional[int]]


def brute_force_fault(
    netlist: Netlist,
    testbench: Testbench,
    golden: GoldenTrace,
    cycle: int,
    plan: InjectionPlan,
) -> Verdict:
    """Single-lane oracle re-simulation of one injection plan, no shortcuts.

    Replays the golden open-loop stimulus, feeds loopback targets from the
    *faulty* run's own outputs, applies the plan's state-bit flips once at
    the injection cycle and re-asserts its forced values on every duty-on
    cycle before the combinational settle, and reports ``(failed,
    latency)`` under the any-output-deviation criterion.  Works for every
    registered fault model — the plan *is* the model's entire effect — and
    is the referee for :meth:`FaultInjector.run_batch`.
    """
    oracle = OracleSimulator(netlist)
    out_bit = {n: i for i, n in enumerate(netlist.outputs)}
    taps: List[Tuple[str, str, int, List[int]]] = []
    loop_targets = set()
    for path in testbench.loopbacks:
        for src, dst in zip(path.sources, path.targets):
            slots = [0] * path.delay
            for past in range(cycle - path.delay, cycle):
                if past >= 0:
                    slots[past % path.delay] = (golden.outputs[past] >> out_bit[src]) & 1
            taps.append((src, dst, path.delay, slots))
            loop_targets.add(dst)

    flip_flops = netlist.flip_flops()
    force_nets = [(flip_flops[f].output_net(), v) for f, v in plan.forces]
    oracle.load_ff_state_packed(golden.ff_state[cycle])
    for ff_index in plan.flips:
        oracle.flip_ff(ff_index)
    for c in range(cycle, golden.n_cycles):
        vector = golden.applied_inputs[c]
        for i, name in enumerate(testbench.input_names):
            if name not in loop_targets:
                oracle.set_input(name, (vector >> i) & 1)
        for _src, dst, delay, slots in taps:
            oracle.set_input(dst, slots[c % delay])
        if force_nets and plan.force_active(c - cycle):
            for q_net, v in force_nets:
                oracle.values[q_net] = v
        oracle.eval_comb()
        if oracle.output_vector() != golden.outputs[c]:
            return True, c - cycle
        for src, _dst, delay, slots in taps:
            slots[c % delay] = oracle.values[src]
        oracle.tick()
    return False, None


def naive_verdicts(
    injector: FaultInjector,
    requests: Sequence[Tuple[int, int]],
) -> List[Verdict]:
    """``(failed, latency)`` of every ``(cycle, ff_index)`` request, from one
    :meth:`FaultInjector.run_batch` per injection cycle (one lane per
    request, in request order) — the naive reference every scheduled run
    must reproduce."""
    by_cycle: Dict[int, List[int]] = {}
    for key, (cycle, _ff_index) in enumerate(requests):
        by_cycle.setdefault(cycle, []).append(key)
    verdicts: List[Verdict] = [(False, None)] * len(requests)
    for cycle in sorted(by_cycle):
        keys = by_cycle[cycle]
        outcome = injector.run_batch(cycle, [requests[k][1] for k in keys])
        for lane, key in enumerate(keys):
            verdicts[key] = outcome.verdict(lane)
    return verdicts


def bruteforce_verdicts(
    injector: FaultInjector, requests: Sequence[Tuple[int, int]]
) -> List[Verdict]:
    """``(failed, latency)`` of every ``(cycle, ff_index)`` request, from a
    :func:`brute_force_fault` replay of the injector's own
    :meth:`~FaultInjector.injection_plan`.  The oracle judges under the
    any-output criterion, so it referees injectors bound to that one."""
    return [
        brute_force_fault(
            injector.netlist,
            injector.testbench,
            injector.golden,
            cycle,
            injector.injection_plan(ff_index, cycle),
        )
        for cycle, ff_index in requests
    ]


#: The lane cap of every scheduled replay: small enough that activation
#: refill and deferral across passes both trigger on a fuzzed circuit.
CHECK_MAX_LANES = 5

#: One referee comparison: ``(kind, requests, got, want)`` — the
#: divergence label ``"<got engine>-vs-<want engine>"``, the ``(cycle,
#: ff_index)`` requests and both engines' per-request verdicts.
Comparison = Tuple[str, Sequence[Tuple[int, int]], Sequence[Verdict], Sequence[Verdict]]


def _report(
    netlist: Netlist, comparisons: Iterable[Comparison]
) -> Tuple[List[Divergence], int]:
    """Compare each request's two verdicts across a mode's *comparisons*.

    Returns ``(divergences, comparisons made)``.  The count ends at the
    first divergence and no later comparison is drawn from *comparisons* —
    a lazy mode simulates nothing past it.
    """
    flip_flops = netlist.flip_flops()
    divergences: List[Divergence] = []
    checked = 0
    for kind, requests, got, want in comparisons:
        got_label, want_label = kind.rsplit("-vs-", 1)
        for k, ((cycle, ff_index), g, w) in enumerate(zip(requests, got, want)):
            checked += 1
            if g != w:
                divergences.append(
                    Divergence(
                        kind=kind,
                        cycle=cycle,
                        net=flip_flops[ff_index].name,
                        values={got_label: g, want_label: w},
                        detail=f"request {k} verdict/latency mismatch",
                    )
                )
                return divergences, checked
    return divergences, checked


def _draw_cycles(
    rng: random.Random,
    n: int,
    golden: GoldenTrace,
    window: Optional[Tuple[int, int]] = None,
) -> List[int]:
    """Up to *n* distinct injection cycles, sorted, drawn from the inclusive
    *window* clipped to the trace (default: cycle 2 to the trace end)."""
    n_cycles = golden.n_cycles
    first, last = window or (min(2, n_cycles - 1), n_cycles - 1)
    candidates = range(first, min(last, n_cycles - 1) + 1)
    return sorted(rng.sample(candidates, min(n, len(candidates))))


# ------------------------------------------------------- metamorphic injector


def run_injector_check(
    netlist: Netlist,
    spec: FuzzSpec,
    n_injection_cycles: int = 3,
) -> Tuple[List[Divergence], int]:
    """Replay ``FaultInjector.run_batch`` verdicts against brute force.

    Every flip-flop is injected (one lane each) at a handful of cycles drawn
    deterministically from the spec seed; the bit-parallel batch verdict and
    error latency must match the oracle's single-lane re-simulation exactly.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injector = FaultInjector(netlist, testbench, golden, criterion, check_interval=4)
    rng = random.Random(f"inject:{spec.seed}")
    cycles = _draw_cycles(rng, n_injection_cycles, golden)
    requests = [(c, f) for c in cycles for f in range(len(netlist.flip_flops()))]
    naive = naive_verdicts(injector, requests)
    reference = bruteforce_verdicts(injector, requests)
    return _report(netlist, [("injector-vs-bruteforce", requests, naive, reference)])


# ------------------------------------------------------ scheduled-vs-naive


def run_scheduler_check(
    netlist: Netlist, spec: FuzzSpec
) -> Tuple[List[Divergence], int]:
    """Replay :class:`AdaptiveScheduler` verdicts against naive batches.

    Every flip-flop is injected at a handful of seed-drawn cycles.  The
    whole mixed-cycle request set runs through the scheduler — with the
    tiny :data:`CHECK_MAX_LANES` cap so activation refill and deferral
    across passes both trigger — and each verdict/latency is compared to
    :func:`naive_verdicts` (itself cross-checked against brute force by
    :func:`run_injector_check`).  The requests then run again split at
    random into three request groups (one shared sweep per pass, each group
    with its own cap, deferral and check grid), and every verdict must
    equal the single-group one.  Both runs look for lanes to merge at every
    retirement check (``merge_min_due = 1``), so merged lanes and their
    riders are replayed too.

    When the fuzzed testbench has loopback paths, the criterion observes
    only the *non-loopback* outputs.  That keeps divergence that travels
    through a tap invisible until it re-emerges downstream — the
    propagation the observed-cone settle and the divergence probe must
    follow across loopback edges, which an all-outputs criterion (every
    tap source directly observable) could never put under test.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    loopback_sources = {
        src for path in testbench.loopbacks for src in path.sources
    }
    observed = [n for n in netlist.outputs if n not in loopback_sources]
    criterion = (
        AnyOutputCriterion(nets=observed)
        if observed
        else AnyOutputCriterion.all_outputs(netlist)
    )
    injector = FaultInjector(netlist, testbench, golden, criterion, check_interval=4)
    rng = random.Random(f"schedule:{spec.seed}")
    cycles = _draw_cycles(rng, 3, golden)
    requests = [(c, f) for c in cycles for f in range(len(netlist.flip_flops()))]
    if not requests:
        return [], 0
    relevant = injector.relevant_ff_names
    flip_flops = injector.sim.flip_flops
    get_telemetry().registry.counter("verify.nonrelevant_requests").inc(
        sum(flip_flops[f].name not in relevant for _c, f in requests)
    )

    def merging_scheduler() -> AdaptiveScheduler:
        scheduler = AdaptiveScheduler(injector, max_lanes=CHECK_MAX_LANES)
        scheduler.merge_min_due = 1  # every check looks for lanes to merge
        return scheduler

    def comparisons() -> Iterator[Comparison]:
        naive = naive_verdicts(injector, requests)
        scheduled = merging_scheduler().run(requests).verdicts
        yield "scheduled-vs-naive", requests, scheduled, naive
        groups = [rng.randrange(3) for _ in requests]
        grouped = merging_scheduler().run(requests, groups=groups)
        yield "grouped-vs-single", requests, grouped.verdicts, scheduled

    return _report(netlist, comparisons())


# ------------------------------------------------------- generated circuits


def run_generated_check(
    circuit: str = "mesh_tiny",
    n_injection_cycles: int = 2,
    n_ffs_sample: int = 16,
    seed: int = 0,
) -> Tuple[List[Divergence], int]:
    """Differential checks on a generated composite circuit.

    The fuzz harness exercises random small netlists; this enrolls the
    parameterized generator family (:mod:`repro.circuits.generator`) so the
    structures the scale campaigns actually run — systolic mesh cells, deep
    pipelines — get the same treatment.  Two referees on the circuit's own
    registered burst workload:

    1. a seed-drawn sample of flip-flops is injected per cycle through
       :meth:`FaultInjector.run_batch` and each verdict/latency replayed as
       a brute-force oracle re-simulation;
    2. the same request set runs through the adaptive scheduler with a tiny
       lane budget, compared against the naive batch verdicts.

    Returns ``(divergences, comparisons)``; deterministic for a given
    ``(circuit, seed)``.
    """
    from ..circuits.library import get_circuit
    from ..circuits.workloads import build_workload_for

    netlist = get_circuit(circuit)
    workload = build_workload_for(circuit, netlist, n_frames=2, gap=8, seed=seed)
    testbench = workload.testbench
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injector = FaultInjector(netlist, testbench, golden, criterion, check_interval=4)
    rng = random.Random(f"generated:{circuit}:{seed}")
    cycles = _draw_cycles(rng, n_injection_cycles, golden, workload.active_window)
    n_ffs = len(netlist.flip_flops())
    ff_indices = sorted(rng.sample(range(n_ffs), min(n_ffs_sample, n_ffs)))
    requests = [(c, f) for c in cycles for f in ff_indices]

    def comparisons() -> Iterator[Comparison]:
        naive = naive_verdicts(injector, requests)
        reference = bruteforce_verdicts(injector, requests)
        yield "generated-injector-vs-bruteforce", requests, naive, reference
        scheduled = AdaptiveScheduler(injector, max_lanes=CHECK_MAX_LANES).run(requests)
        yield "generated-scheduled-vs-naive", requests, scheduled.verdicts, naive

    return _report(netlist, comparisons())


# ------------------------------------------------------------ hold runs

#: The workloads of :func:`run_hold_run_check`, by MAC preset: the tiny
#: preset as the test suite builds it, and the full MAC on three short
#: frames.
HOLD_RUN_WORKLOADS: Dict[str, Dict[str, int]] = {
    "xgmac_tiny": {"n_frames": 4, "min_len": 2, "max_len": 3, "gap": 12, "seed": 7},
    "xgmac": {"n_frames": 3, "min_len": 4, "max_len": 7},
}


def run_hold_run_check(circuit: str) -> Tuple[List[Divergence], int]:
    """Replay every injection a hold run parks against its own naive batch.

    Builds the MAC preset *circuit* with its :data:`HOLD_RUN_WORKLOADS`
    workload under the packet-interface criterion and takes every ``(t,
    f)`` whose
    :attr:`~repro.faultinjection.injector.FaultInjector.release_cycles`
    entry ``t*`` is later than *t*.  Two verdicts of each must equal its
    :func:`naive_verdicts` one: the verdict the table implies — the naive
    verdict of ``(t*, f)``, with ``t* - t`` more cycles of latency — and
    the scheduler's, which parks the request until ``t*``.  The fuzzed
    circuits rarely have hold muxes, so this is where the rule meets a
    referee.  Returns ``(divergences, comparisons)``, two per injection,
    up to the first divergence.
    """
    from ..circuits import build_xgmac_workload, make_xgmac
    from ..faultinjection.classify import PacketInterfaceCriterion

    netlist = make_xgmac(circuit)
    workload = build_xgmac_workload(netlist, **HOLD_RUN_WORKLOADS[circuit])
    golden = workload.testbench.run_golden()
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    table = injector.release_cycles
    requests = [
        (t, f)
        for f, ends in enumerate(table)
        if ends is not None
        for t, end in enumerate(ends)
        if end > t
    ]

    def comparisons() -> Iterator[Comparison]:
        naive = naive_verdicts(injector, requests)
        run_ends = sorted({(table[f][t], f) for t, f in requests})
        at_end = dict(zip(run_ends, naive_verdicts(injector, run_ends)))
        implied = []
        for t, f in requests:
            end = table[f][t]
            failed, latency = at_end[(end, f)]
            implied.append((True, latency + end - t) if failed else (False, None))
        yield "hold-run-vs-naive", requests, implied, naive
        scheduled = AdaptiveScheduler(injector).run(requests).verdicts
        yield "scheduled-hold-run-vs-naive", requests, scheduled, naive

    return _report(netlist, comparisons())


# --------------------------------------------------------- fault-model check

#: Registry spec strings enrolled in the fuzz differential (the plain SEU
#: is already covered exhaustively by :func:`run_injector_check` /
#: :func:`run_scheduler_check`).  Small parameters on purpose: fuzz
#: circuits have a handful of flip-flops, so a size-3 cluster and a
#: period-5 duty cycle already exercise every code path.
FAULT_MODEL_CHECK_SPECS: Tuple[str, ...] = (
    "mbu:size=3,radius=1,seed=0",
    "stuck0",
    "stuck1",
    "intermittent:period=5,on=2,seed=0",
)


def run_fault_model_check(
    netlist: Netlist, spec: FuzzSpec
) -> Tuple[List[Divergence], int]:
    """Replay every registered fault model against the brute-force oracle.

    For each of :data:`FAULT_MODEL_CHECK_SPECS`, every flip-flop is
    injected at a couple of seed-drawn cycles.  Two comparisons per
    injection:

    * the :meth:`FaultInjector.run_batch` verdict/latency vs. a
      single-lane :func:`brute_force_fault` replay of the *same*
      :class:`~repro.faultinjection.faults.InjectionPlan` (the plan is the
      shared contract — the oracle applies it with none of the engine's
      lane packing, early retirement or force vectorization);
    * the adaptive scheduler's mixed-cycle verdicts vs. the brute-force
      reference, with the tiny :data:`CHECK_MAX_LANES` cap so refill and
      deferral across passes trigger under forcing models.
    """
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    n_ffs = len(netlist.flip_flops())
    if not n_ffs:
        return [], 0

    def comparisons() -> Iterator[Comparison]:
        for model_spec in FAULT_MODEL_CHECK_SPECS:
            injector = FaultInjector(
                netlist,
                testbench,
                golden,
                criterion,
                check_interval=4,
                fault_model=model_spec,
            )
            rng = random.Random(f"fault:{model_spec}:{spec.seed}")
            cycles = _draw_cycles(rng, 2, golden)
            requests = [(c, f) for c in cycles for f in range(n_ffs)]
            reference = bruteforce_verdicts(injector, requests)
            naive = naive_verdicts(injector, requests)
            yield f"{model_spec}-vs-bruteforce", requests, naive, reference
            scheduler = AdaptiveScheduler(injector, max_lanes=CHECK_MAX_LANES)
            scheduled = scheduler.run(requests).verdicts
            yield f"{model_spec}-scheduled-vs-bruteforce", requests, scheduled, reference

    return _report(netlist, comparisons())


# ------------------------------------------------------------------ seed sweep


def verify_seed(spec: FuzzSpec) -> SeedReport:
    """Run every differential check on one fuzzed circuit.

    The compiled simulator (three lanes) and the event engine are diffed
    against the oracle, the injector is replayed against brute force, the
    adaptive scheduler's mixed-cycle verdicts are replayed against naive
    batches, and every registered fault model (MBU clusters, stuck-at,
    intermittent) is replayed batch- and scheduler-side against its own
    brute-force oracle (:func:`run_fault_model_check`) — so a fuzz sweep
    certifies the whole simulation substrate, naive and scheduled, across
    all fault models at once.
    """
    netlist = generate_netlist(spec)
    stats = netlist.stats()
    report = SeedReport(
        seed=spec.seed,
        n_cells=stats.n_cells,
        n_ffs=stats.n_sequential,
        n_cycles=spec.n_cycles,
    )
    divergences, comparisons = run_lane_differential(netlist, spec)
    report.divergences.extend(divergences)
    report.comparisons += comparisons
    divergences, comparisons = run_event_differential(netlist, spec)
    report.divergences.extend(divergences)
    report.comparisons += comparisons
    divergences, checked = run_injector_check(netlist, spec)
    report.divergences.extend(divergences)
    report.injections_checked = checked
    registry = get_telemetry().registry
    merged = registry.counter("scheduler.merged")
    nonrelevant = registry.counter("verify.nonrelevant_requests")
    before = merged.value, nonrelevant.value
    divergences, checked = run_scheduler_check(netlist, spec)
    report.divergences.extend(divergences)
    report.injections_checked += checked
    report.merged = merged.value - before[0]
    report.nonrelevant = nonrelevant.value - before[1]
    divergences, checked = run_fault_model_check(netlist, spec)
    report.divergences.extend(divergences)
    report.injections_checked += checked
    return report


def verify_seeds(
    n_seeds: int,
    scale: str = "mini",
    seed_base: int = 0,
    progress=None,
) -> VerifySummary:
    """Sweep ``seed_base .. seed_base + n_seeds - 1`` at the given scale."""
    try:
        spec = FUZZ_SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown fuzz scale {scale!r}; pick one of {sorted(FUZZ_SCALES)}"
        ) from None
    summary = VerifySummary()
    start = time.monotonic()
    for offset in range(n_seeds):
        seed = seed_base + offset
        report = verify_seed(replace(spec, seed=seed))
        summary.n_seeds += 1
        summary.n_comparisons += report.comparisons
        summary.n_injections_checked += report.injections_checked
        summary.n_merged += report.merged
        summary.n_nonrelevant += report.nonrelevant
        if not report.ok:
            summary.failing.append(report)
        if progress is not None:
            progress(offset + 1, n_seeds, report)
    summary.wall_seconds = time.monotonic() - start
    return summary
