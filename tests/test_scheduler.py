"""Adaptive injection scheduler: equivalence, boundaries, lane algebra.

The scheduler's contract is that scheduling is *invisible*: whatever lane a
request lands in, however often the batch is grown or truncated, every
injection's verdict and error latency must equal a naive
:meth:`FaultInjector.run_batch` replay of the same ``(cycle, ff)`` pair.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import LIBRARY_CIRCUITS, build_workload_for, get_circuit
from repro.faultinjection import (
    AdaptiveScheduler,
    AnyOutputCriterion,
    FaultInjector,
    PacketInterfaceCriterion,
    SchedulerStats,
)
from repro.faultinjection.scheduler import MIN_AUTO_LANES, auto_max_lanes
from repro.sim import CompiledSimulator, ScheduleBuilder, Testbench
from repro.sim.logic import lanes_mask, set_lanes
from repro.verify import naive_verdicts


@pytest.fixture(scope="module")
def tiny_parts(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(
        tiny_workload.valid_nets, tiny_workload.data_nets
    )
    return tiny_mac, tiny_workload, tiny_golden, criterion


# --------------------------------------------------------------- equivalence


def test_scheduled_matches_naive(tiny_parts):
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, last = workload.active_window
    rng = random.Random(42)
    n_ffs = injector.sim.n_flip_flops
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(150)]
    expected = naive_verdicts(injector, requests)
    outcome = AdaptiveScheduler(injector, max_lanes=32).run(requests)
    assert outcome.verdicts == expected
    assert outcome.stats.activations == len(requests)


@pytest.mark.parametrize("former_mode", ["on", "auto", "off"])
def test_cone_gating_modes_are_invisible(tiny_parts, former_mode):
    """Cone-gated evaluation is gone: the scheduler refuses the old gating
    knob in every mode it once took, and its one settle path matches the
    naive replay under a small lane budget."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    with pytest.raises(TypeError):
        AdaptiveScheduler(injector, max_lanes=6, cone_gating=former_mode)
    first, last = workload.active_window
    rng = random.Random(7)
    n_ffs = injector.sim.n_flip_flops
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(60)]
    expected = naive_verdicts(injector, requests)
    scheduler = AdaptiveScheduler(injector, max_lanes=6)
    assert scheduler.run(requests).verdicts == expected


@pytest.mark.parametrize("elastic_width", ["off", "on"])
def test_drained_passes_match_naive(tiny_parts, monkeypatch, elastic_width):
    """Passes that take every lane at once and then drain keep every
    verdict and latency, at a fixed pass width and at an elastic one."""
    import repro.faultinjection.scheduler as scheduler_mod

    if elastic_width == "on":
        monkeypatch.setattr(scheduler_mod, "MIN_WIDTH", 2)
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, _last = workload.active_window
    rng = random.Random(11)
    n_ffs = injector.sim.n_flip_flops
    # Injections bunched at the start of the window: every pass takes its
    # lanes at once, then drains with no request left to refill it.  None
    # lies inside a hold run or on a flip-flop outside the relevant set:
    # those requests take their lanes later, at the run's end, or never.
    releases = injector.release_cycles
    requests = []
    while len(requests) < 400:
        cycle, ff = first + rng.randrange(4), rng.randrange(n_ffs)
        if releases[ff] is None or releases[ff][cycle] == cycle:
            requests.append((cycle, ff))
    expected = naive_verdicts(injector, requests)
    sim = injector.sim
    changes = []
    resize = sim.resize_lanes

    def recording_resize(n_lanes, keep=False):
        if keep:
            changes.append((sim.n_lanes, n_lanes))
        resize(n_lanes, keep=keep)

    monkeypatch.setattr(sim, "resize_lanes", recording_resize)
    scheduler = AdaptiveScheduler(injector, max_lanes=32)
    outcome = scheduler.run(requests)
    assert outcome.verdicts == expected
    truncations = sum(1 for old, new in changes if new < old)
    # Only the elastic pass changes its width mid-pass.  Its drained passes
    # keep a high lane live until they end, so truncation narrows once.
    if elastic_width == "on":
        assert truncations == 1
    else:
        assert changes == []


# ----------------------------------------------------------------- boundaries


def test_relevant_only_load_and_tick_match_naive(tiny_parts):
    """On ``xgmac_tiny`` some flip-flops are outside the relevant set, so a
    scheduled pass neither loads nor latches their Q rows; requests on every
    flip-flop, those included, keep the naive verdicts."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    n_ffs = injector.sim.n_flip_flops
    assert 0 < len(injector.relevant_ff_names) < n_ffs
    scheduler = AdaptiveScheduler(injector, max_lanes=64)
    assert injector.relevant_tick is not injector.sim._tick_fn
    first, last = workload.active_window
    rng = random.Random(31)
    requests = [(rng.randrange(first, last), ff) for ff in range(n_ffs) for _ in range(2)]
    rng.shuffle(requests)
    expected = naive_verdicts(injector, requests)
    assert scheduler.run(requests).verdicts == expected


def test_golden_bits_table_matches_the_packed_trace(tiny_parts):
    """Row *c* of ``relevant_bits`` holds, per relevant flip-flop, the bit
    a per-bit read of the packed golden state gives."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    assert len(injector.relevant_bits) == len(golden.ff_state)
    for row, state in zip(injector.relevant_bits, golden.ff_state):
        assert row == bytes(
            (state >> ff_index) & 1 for ff_index in injector.relevant_ffs
        )


def test_injection_on_last_workload_cycle(tiny_parts):
    """A lane activated on the final trace cycle simulates exactly one cycle."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    last_cycle = golden.n_cycles - 1
    requests = [(last_cycle, ff) for ff in range(12)]
    expected = naive_verdicts(injector, requests)
    outcome = AdaptiveScheduler(injector, max_lanes=4).run(requests)
    assert outcome.verdicts == expected


def test_check_interval_larger_than_remaining_horizon(tiny_parts):
    """Retirement checks sparser than the whole observation window still
    retire every lane with the correct verdict."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, check_interval=10_000
    )
    first, _last = workload.active_window
    requests = [(first + offset, ff) for offset in (0, 3, 9) for ff in range(10)]
    expected = naive_verdicts(injector, requests)
    outcome = AdaptiveScheduler(injector, max_lanes=8).run(requests)
    assert outcome.verdicts == expected


def test_all_lanes_failing_in_the_injection_cycle():
    """Output-register SEUs on a counter fail with latency 0 on every lane
    and free the whole batch at the first check."""
    from repro.synth import Module, synthesize, wordlib

    module = Module("counter4")
    enable = module.input("en")
    count = module.reg_bus("cnt", 4)
    module.next_en(count, enable, wordlib.inc(count))
    module.output_bus("count", count)
    netlist = synthesize(module)

    sb = ScheduleBuilder(netlist.inputs)
    sb.drive(0, "en", 1)
    testbench = Testbench(netlist, sb.compile(40))
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    injector = FaultInjector(netlist, testbench, golden, criterion)
    # The count register drives the outputs combinationally: every flip is
    # visible in its own injection cycle.
    count_ffs = [
        i
        for i, ff in enumerate(injector.sim.flip_flops)
        if ff.output_net().startswith("cnt")
    ]
    requests = [(cycle, ff) for cycle in (5, 6, 20) for ff in count_ffs]
    outcome = AdaptiveScheduler(injector, max_lanes=len(requests)).run(requests)
    assert all(failed and latency == 0 for failed, latency in outcome.verdicts)
    assert outcome.verdicts == naive_verdicts(injector, requests)


def test_deferred_requests_roll_over_to_later_passes(tiny_parts):
    """More same-cycle injections than lanes: the overflow keeps its verdicts."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, _last = workload.active_window
    requests = [(first + 2, ff) for ff in range(30)]
    expected = naive_verdicts(injector, requests)
    scheduler = AdaptiveScheduler(injector, max_lanes=7)
    outcome = scheduler.run(requests)
    assert outcome.verdicts == expected
    assert outcome.stats.n_passes >= 5  # ceil(30 / 7) passes of 7 lanes
    assert outcome.stats.deferred > 0


# ------------------------------------------------------------ elastic width


def _checked_settle(injector):
    """Install an observed settle that asserts the lane-width invariant:
    every row it reads lies in ``[0, mask]``, whatever wrote it (activation
    load, flips, forcing, growth, truncation, tick)."""
    settle = injector.observed_settle

    def checked(values, mask):
        assert all(0 <= value <= mask for value in values)
        settle(values, mask)
        assert all(0 <= value <= mask for value in values)

    injector.observed_settle = checked


@pytest.mark.parametrize("fault_model", [None, "stuck1", "stuck0"])
def test_elastic_width_is_invisible(tiny_parts, monkeypatch, fault_model):
    """Repeated grow/truncate cycles under a small cap keep every verdict,
    and requests are deferred exactly where a fixed-width pass defers them."""
    import repro.faultinjection.scheduler as scheduler_mod

    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model=fault_model
    )
    _checked_settle(injector)
    first, last = workload.active_window
    rng = random.Random(23)
    pool = range(injector.sim.n_flip_flops)
    if fault_model is not None:
        # Forced (stuck-at) lanes never converge: they retire only when they
        # fail, so the pass truncates only if some do.  Draw them from the
        # flip-flops whose fault fails when struck at the window's start.
        probe = naive_verdicts(injector, [(first, ff) for ff in pool])
        pool = [ff for ff, (failed, _latency) in enumerate(probe) if failed]
    # Bursts of same-cycle requests separated by quiet stretches: each
    # burst grows the pass, each quiet stretch lets it truncate.
    requests = [
        (cycle + rng.randrange(3), rng.choice(pool))
        for cycle in range(first, last - 3, 17)
        for _ in range(rng.randrange(1, 14))
    ]
    expected = naive_verdicts(injector, requests)

    sim = injector.sim
    changes = []  # (old width, new width) of every in-pass width change
    resize = sim.resize_lanes

    def recording_resize(n_lanes, keep=False):
        if keep:
            changes.append((sim.n_lanes, n_lanes))
        resize(n_lanes, keep=keep)

    monkeypatch.setattr(sim, "resize_lanes", recording_resize)
    monkeypatch.setattr(scheduler_mod, "MIN_WIDTH", 2)
    elastic = AdaptiveScheduler(injector, max_lanes=12)
    outcome = elastic.run(requests)
    assert outcome.verdicts == expected
    grows = sum(1 for old, new in changes if new > old)
    shrinks = sum(1 for old, new in changes if new < old)
    assert grows >= 3 and shrinks >= 1, changes
    if fault_model is None:
        # Converging lanes retire out of order, so truncation recurs.
        assert shrinks >= 3, changes
    assert max(new for _old, new in changes) <= 12
    assert outcome.stats.width_cycles < outcome.stats.cycles_simulated * 12

    # A pass that starts at its cap never resizes mid-pass (fixed width).
    monkeypatch.setattr(scheduler_mod, "MIN_WIDTH", 4096)
    fixed = AdaptiveScheduler(injector, max_lanes=12)
    reference = fixed.run(requests)
    assert reference.verdicts == expected
    for name in (
        "deferred", "n_passes", "activations", "lane_cycles", "cycles_simulated"
    ):
        assert getattr(outcome.stats, name) == getattr(reference.stats, name), name
    if fault_model is not None:
        assert outcome.stats.deferred > 0


def test_lane_occupancy_is_live_over_allocated_lane_cycles(tiny_parts):
    """Occupancy divides by the lane slots the passes allocated, not by
    ``cycles_simulated * peak_width``: a burst that grows one pass wide and
    then truncates must not read as a nearly empty batch.  Requests riding
    a merged lane share its slot, so they count once, and parked requests
    have none."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    rng = random.Random(9)
    burst = [(first, ff) for ff in range(n_ffs)] * 2
    trickle = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(20)]
    stats = AdaptiveScheduler(injector).run(burst + trickle).stats
    live = stats.lane_cycles - stats.rider_cycles - stats.parked_cycles
    assert stats.merged > 0 and stats.rider_cycles > 0 and stats.parked_cycles > 0
    assert stats.lane_occupancy() == live / stats.width_cycles
    assert stats.width_cycles < stats.cycles_simulated * stats.peak_width
    peak_bound = live / (stats.cycles_simulated * stats.peak_width)
    assert peak_bound < stats.lane_occupancy() <= 1.0
    assert SchedulerStats().lane_occupancy() == 0.0


def test_default_lane_cap_is_sized_by_the_netlist(xgmac_parts):
    """The default cap is the widest batch whose value rows fit the bit
    budget, never below the floor: wider on ``xgmac``, the floor on a
    ``mesh_10k``-sized netlist."""
    assert auto_max_lanes(55_000) == MIN_AUTO_LANES == 4096
    assert auto_max_lanes(5_022) == 16_703
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    assert len(injector.sim.values) == 5_022
    assert AdaptiveScheduler(injector).max_lanes == auto_max_lanes(5_022)
    assert AdaptiveScheduler(injector, max_lanes=8).max_lanes == 8


# ------------------------------------------------------------ observed cone


@pytest.fixture(scope="module")
def xgmac_parts():
    from repro.circuits import build_xgmac_workload, make_xgmac

    netlist = make_xgmac("xgmac")
    workload = build_xgmac_workload(netlist, n_frames=3, min_len=4, max_len=7)
    golden = workload.testbench.run_golden()
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    return netlist, workload, golden, criterion


# ---------------------------------------------------------------- cycle steps
#
# The injector's cycle steps are the one implementation both forward loops
# (run_batch and the scheduler) call; each is checked here against a
# per-lane reference written out in the test.


def _bit(vec, lane):
    return (vec >> lane) & 1


def _golden_pipelines(injector, cycle, rng, n_lanes, flips):
    """Pipelines seeded on every lane at *cycle*, then *flips* random
    ``(tap, slot, lane)`` bits inverted."""
    pipelines = injector.new_pipelines()
    injector.seed_loopback(pipelines, cycle, injector.sim.mask)
    for _ in range(flips):
        t = rng.randrange(len(pipelines))
        slot = rng.randrange(len(pipelines[t]))
        pipelines[t][slot] ^= 1 << rng.randrange(n_lanes)
    return pipelines


def test_seed_loopback_touches_only_the_given_lanes(xgmac_parts):
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    assert injector.taps
    n_lanes = 300
    injector.sim.resize_lanes(n_lanes)
    rng = random.Random(5)
    for cycle in (0, 1, 40, golden.n_cycles - 1):
        pipelines = [
            [rng.getrandbits(n_lanes) for _ in range(tap.delay)] for tap in injector.taps
        ]
        before = [list(pipeline) for pipeline in pipelines]
        lanes = rng.getrandbits(n_lanes)
        injector.seed_loopback(pipelines, cycle, lanes)
        for tap, old, new in zip(injector.taps, before, pipelines):
            for past in range(cycle - tap.delay, cycle):
                slot = past % tap.delay
                bit = tap.golden_bits[past] if past >= 0 else 0
                for lane in range(n_lanes):
                    expected = bit if _bit(lanes, lane) else _bit(old[slot], lane)
                    assert _bit(new[slot], lane) == expected
                assert new[slot] >> n_lanes == 0


def test_slot_probe_matches_a_per_lane_recomputation(xgmac_parts):
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    n_lanes = 200
    injector.sim.resize_lanes(n_lanes)
    rng = random.Random(6)
    for cycle in (0, 1, 17, 90, golden.n_cycles - 1):
        for flips in (0, 1, 12):
            pipelines = _golden_pipelines(injector, cycle, rng, n_lanes, flips)
            lanes = rng.getrandbits(n_lanes)
            expected = 0
            for lane in range(n_lanes):
                if not _bit(lanes, lane):
                    continue
                for tap, pipeline in zip(injector.taps, pipelines):
                    for past in range(max(0, cycle - tap.delay), cycle):
                        if _bit(pipeline[past % tap.delay], lane) != tap.golden_bits[past]:
                            expected |= 1 << lane
            assert injector.diverging_slots(cycle, pipelines, lanes) == expected
            if flips == 0 or cycle == 0:
                assert expected == 0


def test_row_probe_matches_a_per_row_per_lane_reference(xgmac_parts):
    """The relevant-row probe of both loops, against the packed golden
    state read one flip-flop and one lane at a time."""
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    sim = injector.sim
    n_lanes = 130
    sim.resize_lanes(n_lanes)
    rng = random.Random(7)
    relevant = injector.relevant_ffs
    assert len(relevant) < sim.n_flip_flops
    for cycle in (0, 33, golden.n_cycles):
        state = golden.ff_state[cycle]
        for flips in (0, 1, 5, 400):
            sim.load_ff_state_packed(state)
            for _ in range(flips):
                ff = rng.randrange(sim.n_flip_flops)
                sim.flip_ff(ff, 1 << rng.randrange(n_lanes))
            lanes = rng.getrandbits(n_lanes)
            expected = 0
            for ff_index in relevant:
                row = sim.values[sim._ff_q[ff_index]]
                for lane in range(n_lanes):
                    if _bit(lanes, lane) and _bit(row, lane) != (state >> ff_index) & 1:
                        expected |= 1 << lane
            assert injector.diverging_rows(cycle, lanes) == expected
            assert injector.diverging_row_planes(cycle, lanes)[0] == expected


def _read_rows(injector):
    """Every row a scheduled verdict, probe or latch reads after a settle."""
    sim = injector.sim
    roots, latched = injector.observed_roots()
    read = set(roots)
    for ff_index in latched:
        read.add(sim._ff_d[ff_index])
        if sim._ff_rn[ff_index] is not None:
            read.add(sim._ff_rn[ff_index])
    return read


def test_observed_settle_matches_full_settle_on_read_nets(xgmac_parts):
    """From random in-mask states, the observed settle leaves every net a
    verdict reads equal to the full eval_comb."""
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    sim = injector.sim
    non_relevant = len(sim.flip_flops) - len(injector.relevant_ff_names)
    assert non_relevant == 237
    settle = injector.observed_settle
    assert settle is not sim._eval_fn
    read = _read_rows(injector)
    rng = random.Random(3)
    for n_lanes in (1, 64, 300):
        sim.resize_lanes(n_lanes)
        for _ in range(3):
            start = [rng.getrandbits(n_lanes) for _ in sim.values]
            sim.values[:] = start
            sim.eval_comb()
            full = list(sim.values)
            sim.values[:] = start
            for clk in sim._clock_nets:
                sim.values[clk] = 0
            settle(sim.values, sim.mask)
            assert all(sim.values[idx] == full[idx] for idx in read)


class _ForcedRows(list):
    """Value rows in which the *forced* rows keep a fixed value, whatever
    the generated code writes to them: a forced enable reads the same on
    every settle path."""

    def __init__(self, rows, forced):
        super().__init__(rows)
        self.forced = forced
        for idx, value in forced.items():
            list.__setitem__(self, idx, value)

    def __setitem__(self, idx, value):
        list.__setitem__(self, idx, self.forced.get(idx, value))


def test_enable_gated_settle_matches_full_settle_under_forced_enables(xgmac_parts):
    """With each register enable forced to 0, to the mask or to mixed lanes,
    or left to the logic with a stale 0 in its row (seeded per enable),
    the observed settle leaves every net a verdict reads equal to
    eval_comb: an enable that is off on every lane copies Q to D where its
    hold muxes would, an enable is settled before it is tested, and no net
    skipped logic leaves stale (random here) is read."""
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    sim = injector.sim
    enables = sorted(set(sim.cone_plan(*injector.observed_roots()).gate.values()))
    settle = injector.observed_settle
    read = _read_rows(injector)
    rng = random.Random(11)
    skipped = 0
    for n_lanes in (1, 64, 300):
        sim.resize_lanes(n_lanes)
        mask = sim.mask
        for _ in range(3):
            start = [rng.getrandbits(n_lanes) for _ in sim.values]
            forced = {}
            for e in enables:
                mode = rng.randrange(4)
                if mode < 3:
                    forced[e] = (0, mask, rng.getrandbits(n_lanes))[mode]
                else:
                    start[e] = 0
            skipped += sum(not value for value in forced.values())
            values = sim.values
            try:
                sim.values = _ForcedRows(start, forced)
                sim.eval_comb()
                full = sim.values
            finally:
                sim.values = values
            gated = _ForcedRows(start, forced)
            for clk in sim._clock_nets:
                gated[clk] = 0
            settle(gated, mask)
            assert all(gated[idx] == full[idx] for idx in read)
    assert skipped > 0


def test_enable_gating_structure(xgmac_parts):
    """The gating of xgmac's observed settle, pinned, and its invariants: a
    hold mux holds its one latched flip-flop from its Q under its enable
    and feeds only that D pin; no other gated cell drives a root or an
    enable, and outside its group only its hold muxes' data inputs read it.
    The compile records the plan's shape as gauges."""
    from repro.obs import Telemetry, use_telemetry

    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    sim = injector.sim
    roots, latched = injector.observed_roots()
    plan = sim.cone_plan(roots, latched)
    enables = set(plan.gate.values())
    assert not plan.full
    assert (len(plan.holds), len(enables), len(plan.gate)) == (674, 69, 1483)

    index = sim.net_index
    cells = netlist.cells

    def out(name):
        return index[cells[name].output_net()]

    pins = set(roots)
    for i in latched:
        pins.add(sim._ff_d[i])
        if sim._ff_rn[i] is not None:
            pins.add(sim._ff_rn[i])
    readers = {}
    for name in plan.cells:
        for pos, net in enumerate(cells[name].input_nets()):
            readers.setdefault(index[net], []).append((name, pos))
    for name, q in plan.holds.items():
        a, _b, s = (index[net] for net in cells[name].input_nets())
        assert cells[name].ctype.name == "MUX2"
        assert (a, s) == (q, plan.gate[name])
        assert [sim._ff_q[i] for i in latched if sim._ff_d[i] == out(name)] == [q]
        assert out(name) not in set(roots) | {sim._ff_rn[i] for i in latched}
        assert out(name) not in readers
    for name, enable in plan.gate.items():
        assert out(name) not in enables
        if name in plan.holds:
            continue
        assert out(name) not in pins
        for reader, pos in readers[out(name)]:
            assert plan.gate.get(reader) == enable
            assert reader not in plan.holds or pos == 1

    with use_telemetry(Telemetry()) as telemetry:
        sim.compile_cone_eval(plan)
    gauges = telemetry.registry
    assert gauges.gauge("sim.compiled.cone_cells").value == len(plan.cells)
    assert gauges.gauge("sim.compiled.gated_cells").value == 1483
    assert gauges.gauge("sim.compiled.enable_groups").value == 69


@pytest.mark.parametrize(
    "fault_model", [None, "mbu:size=3,radius=1,seed=0", "stuck1"]
)
def test_observed_settle_keeps_verdicts_on_non_relevant_hits(
    xgmac_parts, fault_model
):
    """Hits on flip-flops outside the observed cone (and on relevant ones)
    get the same scheduled verdicts as run_batch."""
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model=fault_model
    )
    relevant = injector.relevant_ff_names
    ffs = injector.sim.flip_flops
    outside = [i for i, ff in enumerate(ffs) if ff.name not in relevant]
    inside = [i for i, ff in enumerate(ffs) if ff.name in relevant]
    first, last = workload.active_window
    rng = random.Random(9)
    cycles = sorted(rng.sample(range(first, last), 3))
    requests = [(cycle, ff) for cycle in cycles for ff in rng.sample(outside, 10)]
    requests += [(cycle, ff) for cycle in cycles for ff in rng.sample(inside, 4)]
    expected = naive_verdicts(injector, requests)
    outcome = AdaptiveScheduler(injector).run(requests)
    assert outcome.verdicts == expected


@pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS + ["xgmac_tiny", "direct_shift"])
def test_scheduled_matches_naive_across_chunk_boundaries(
    circuit, tiny_parts, monkeypatch, request
):
    """Generated code cut every 3 statements (settle, observed-cone settle,
    tick, activation loader) gives the verdicts and latencies of the naive
    replay on a default-chunk simulator.  On ``direct_shift`` D and RN pins
    read other flip-flops' Qs, so a tick that wrote one chunk's Qs before a
    later chunk read its pins would diverge; on ``xgmac_tiny`` the
    observed-cone settle is a strict subset of the netlist, and enable
    groups longer than a chunk are cut into several gated blocks."""
    import repro.sim.compiled as compiled_mod

    if circuit == "xgmac_tiny":
        netlist, workload, golden, criterion = tiny_parts
        first, last = workload.active_window
        testbench = workload.testbench
    elif circuit == "direct_shift":
        netlist = request.getfixturevalue("direct_shift_netlist")
        sb = ScheduleBuilder(netlist.inputs)
        bits = random.Random(5)
        for cycle in range(40):
            sb.drive(cycle, "din", bits.getrandbits(1))
        testbench = Testbench(netlist, sb.compile(40))
        first, last = 2, 30
    else:
        netlist = get_circuit(circuit)
        workload = build_workload_for(
            circuit, netlist, n_frames=2, min_len=2, max_len=3, gap=6, seed=1
        )
        first, last = workload.active_window
        testbench = workload.testbench
    if circuit != "xgmac_tiny":
        golden = testbench.run_golden()
        criterion = AnyOutputCriterion.all_outputs(netlist)
    reference = FaultInjector(netlist, testbench, golden, criterion)
    rng = random.Random(circuit)
    n_ffs = reference.sim.n_flip_flops
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(60)]
    expected = naive_verdicts(reference, requests)

    monkeypatch.setattr(compiled_mod, "CHUNK_STATEMENTS", 3)
    injector = FaultInjector(netlist, testbench, golden, criterion)
    assert injector.sim._tick_fn is not reference.sim._tick_fn
    if circuit == "xgmac_tiny":
        plan = injector.sim.cone_plan(*injector.observed_roots())
        group_sizes = Counter(plan.gate.values())
        holds = Counter(plan.gate[name] for name in plan.holds)
        assert max(group_sizes.values()) == 68
        assert max(holds.values()) > 3
    outcome = AdaptiveScheduler(injector, max_lanes=8).run(requests)
    assert outcome.verdicts == expected


def test_observed_settle_is_the_full_eval_when_every_ff_is_relevant():
    from repro.campaigns import CampaignSpec
    from repro.campaigns.spec import build_context

    context = build_context(CampaignSpec(circuit="mesh_tiny", n_frames=2))
    injector = FaultInjector(
        context.netlist,
        context.workload.testbench,
        context.ensure_golden(),
        context.criterion,
    )
    assert len(injector.relevant_ff_names) == injector.sim.n_flip_flops
    assert injector.observed_settle is injector.sim._eval_fn


# -------------------------------------------------------- structural verdicts

#: Cycles in which the hand-built circuits' enable ``en`` is set, and the
#: one cycle in which their reset ``rn`` is active.
_HOLD_ENABLES = (5, 14, 22)
_HOLD_RESET = 9


def _hold_run_injector(variant):
    """An injector on a register ``r`` behind a hold mux ``D = MUX(r, ~r,
    en)`` whose only other reader is ``s``'s hold mux on the same enable
    (``s`` is the output), plus what *variant* adds:

    * ``"reset"`` — ``r`` has a sync reset, active in one cycle of ``en = 0``;
    * ``"self_enable"`` — a register ``g`` whose own Q is its enable and
      the enable of an output register ``u``;
    * ``"reader"`` — an ungated XOR reads ``r`` into the D pin of an output
      register;
    * ``"root"`` — ``r`` is itself an output the criterion reads;
    * ``"pin"`` — ``r`` is the D pin of an output register.

    A free-running register ``z`` that no output reads keeps the observed
    cone short of every cell: a cone covering them all is not gated, and
    then has no hold muxes.
    """
    from repro.netlist.core import Netlist

    netlist = Netlist(f"hold_{variant}")
    netlist.add_input("clk", is_clock=True)
    for name in ("en", "b", "rn"):
        netlist.add_input(name)
    cells = [
        ("nr", "INV", {"A": "r", "Z": "nr"}),
        ("mux_r", "MUX2", {"A": "r", "B": "nr", "S": "en", "Z": "d_r"}),
        ("mux_s", "MUX2", {"A": "s", "B": "r", "S": "en", "Z": "d_s"}),
        ("nz", "INV", {"A": "z", "Z": "nz"}),
    ]
    ffs = [("ff_s", "d_s", "s"), ("ff_z", "nz", "z")]
    outputs = ["s"]
    if variant == "self_enable":
        cells.append(("mux_g", "MUX2", {"A": "g", "B": "b", "S": "g", "Z": "d_g"}))
        cells.append(("mux_u", "MUX2", {"A": "u", "B": "b", "S": "g", "Z": "d_u"}))
        ffs += [("ff_g", "d_g", "g"), ("ff_u", "d_u", "u")]
        outputs.append("u")
    elif variant == "reader":
        cells.append(("x", "XOR2", {"A": "r", "B": "b", "Z": "x"}))
        ffs.append(("ff_w", "x", "w"))
        outputs.append("w")
    elif variant == "root":
        outputs.append("r")
    elif variant == "pin":
        ffs.append(("ff_p", "r", "p"))
        outputs.append("p")
    for name, ctype, pins in cells:
        netlist.add_cell(name, ctype, pins)
    if variant == "reset":
        netlist.add_cell("ff_r", "DFFR", {"D": "d_r", "RN": "rn", "CK": "clk", "Q": "r"})
    else:
        netlist.add_cell("ff_r", "DFF", {"D": "d_r", "CK": "clk", "Q": "r"})
    for name, d, q in ffs:
        netlist.add_cell(name, "DFF", {"D": d, "CK": "clk", "Q": q})
    for name in outputs:
        netlist.add_output(name)

    sb = ScheduleBuilder(netlist.inputs)
    sb.drive(0, "b", 1)
    sb.drive(0, "rn", 1)
    for cycle in _HOLD_ENABLES:
        sb.pulse(cycle, "en")
    sb.drive(_HOLD_RESET, "rn", 0)
    sb.drive(_HOLD_RESET + 1, "rn", 1)
    testbench = Testbench(netlist, sb.compile(30))
    golden = testbench.run_golden()
    criterion = AnyOutputCriterion.all_outputs(netlist)
    return FaultInjector(netlist, testbench, golden, criterion, check_interval=3)


def _every_request(injector):
    return [
        (c, f)
        for c in range(injector.golden.n_cycles)
        for f in range(injector.sim.n_flip_flops)
    ]


def test_hold_runs_share_the_verdict_of_their_end():
    """In the plain circuit every cycle of ``en = 0`` before the last is a
    hold cycle of ``r``: its injection has the verdict of the run's end,
    the next enabled cycle, with the cycles between added to the
    latency.  Scheduled with those requests parked, every verdict is the
    naive one."""
    injector = _hold_run_injector("plain")
    r = injector.ff_index("ff_r")
    n_cycles = injector.golden.n_cycles
    ends = list(_HOLD_ENABLES) + [n_cycles - 1]
    expected_runs = [min(e for e in ends if e >= t) for t in range(n_cycles)]
    assert list(injector.release_cycles[r]) == expected_runs
    requests = _every_request(injector)
    naive = naive_verdicts(injector, requests)
    verdict = dict(zip(requests, naive))
    for t, end in enumerate(expected_runs):
        failed, latency = verdict[(end, r)]
        assert verdict[(t, r)] == (failed, latency + end - t if failed else None)
    outcome = AdaptiveScheduler(injector, max_lanes=4).run(requests)
    assert outcome.verdicts == naive
    assert outcome.stats.hold_riders > 0


@pytest.mark.parametrize(
    "variant, cycle",
    [
        ("reset", _HOLD_RESET),
        ("self_enable", 2),
        ("reader", 2),
        ("root", 2),
        ("pin", 2),
    ],
)
def test_each_hold_condition_decides_a_verdict(variant, cycle):
    """Each condition of the hold-run rule, left out, would give a wrong
    verdict: the injection at *cycle* of the flip-flop it concerns (``r``,
    or ``g`` for the self-enable) differs from the next cycle's by more
    than a cycle of latency.  The table leaves it at its own cycle, and
    the scheduled verdicts of every injection equal the naive ones."""
    injector = _hold_run_injector(variant)
    f = injector.ff_index("ff_g" if variant == "self_enable" else "ff_r")
    assert injector.release_cycles[f] is None or injector.release_cycles[f][cycle] == cycle
    requests = _every_request(injector)
    naive = naive_verdicts(injector, requests)
    verdict = dict(zip(requests, naive))
    (now_failed, now_latency), (next_failed, next_latency) = (
        verdict[(cycle, f)],
        verdict[(cycle + 1, f)],
    )
    assert (now_failed, now_latency) != (
        next_failed,
        next_latency + 1 if next_failed else None,
    )
    outcome = AdaptiveScheduler(injector, max_lanes=4).run(requests)
    assert outcome.verdicts == naive


def test_release_table_on_xgmac(xgmac_parts):
    """The table on ``xgmac``: flip-flops outside the relevant set never
    take a lane, 344 relevant ones have hold runs, and a hold run always
    ends at a cycle that is none.  Fault models other than the plain SEU
    get no table."""
    netlist, workload, golden, criterion = xgmac_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    table = injector.release_cycles
    relevant = set(injector.relevant_ffs)
    n_cycles = golden.n_cycles
    held = 0
    for f, runs in enumerate(table):
        if f not in relevant:
            assert list(runs) == [-1] * n_cycles
            continue
        if runs is None:
            continue
        held += 1
        for t, end in enumerate(runs):
            assert t <= end < n_cycles and runs[end] == end
    assert held == 344
    assert sum(
        sum(end != t for t, end in enumerate(runs))
        for f, runs in enumerate(table)
        if f in relevant and runs is not None
    ) == 71_994
    mbu = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model="mbu:size=3,radius=1,seed=0"
    )
    assert mbu.release_cycles == [None] * len(table)


# -------------------------------------------------------------- property test


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_compaction_refill_never_changes_verdict_or_latency(tiny_parts, data):
    """Property: for random request sets and lane budgets, scheduled
    verdicts/latencies equal the naive replay."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    requests = data.draw(
        st.lists(
            st.tuples(
                st.integers(first, last - 1), st.integers(0, n_ffs - 1)
            ),
            min_size=1,
            max_size=40,
        )
    )
    max_lanes = data.draw(st.integers(1, 24))
    expected = naive_verdicts(injector, requests)
    scheduler = AdaptiveScheduler(injector, max_lanes=max_lanes)
    assert scheduler.run(requests).verdicts == expected


# ------------------------------------------------------------ request groups


class CountingGate:
    """A gate that retires each flip-flop after a random number of
    verdicts, and logs every ``admit``/``record`` call in order.

    Its decisions depend only on how many verdicts it saw before each
    admit, like :class:`repro.campaigns.policy.ShardGate`."""

    def __init__(self, seed, n_ffs):
        rng = random.Random(seed)
        self.limit = [rng.randint(1, 3) for _ in range(n_ffs)]
        self.seen = [0] * n_ffs
        self.events = []

    def admit(self, ff):
        admitted = self.seen[ff] < self.limit[ff]
        self.events.append(("admit", ff, admitted))
        return admitted

    def record(self, ff, failed):
        self.seen[ff] += 1
        self.events.append(("record", ff, failed))

    def normalized_events(self):
        """The event log with each run of consecutive records sorted: one
        retirement batch may reach the gate in any lane order."""
        out, batch = [], []
        for event in self.events:
            if event[0] == "record":
                batch.append(event)
                continue
            out.extend(sorted(batch))
            batch = []
            out.append(event)
        return out + sorted(batch)


@pytest.fixture(scope="module")
def group_injector(tiny_parts):
    """``group_injector(check_interval, fault_model)``: one injector per
    setting, built on first use and shared by every hypothesis example."""
    netlist, workload, golden, criterion = tiny_parts
    built = {}

    def get(check_interval, fault_model):
        key = (check_interval, fault_model)
        if key not in built:
            built[key] = FaultInjector(
                netlist,
                workload.testbench,
                golden,
                criterion,
                check_interval=check_interval,
                fault_model=fault_model,
            )
        return built[key]

    return get


def _gated_run(injector, max_lanes, requests, groups, gate_seeds):
    """One scheduler run with a CountingGate per group."""
    gates = [CountingGate(seed, injector.sim.n_flip_flops) for seed in gate_seeds]
    gate_of = groups if groups is not None else [0] * len(requests)
    outcome = AdaptiveScheduler(injector, max_lanes=max_lanes).run(
        requests,
        admit=lambda key: gates[gate_of[key]].admit(requests[key][1]),
        on_verdict=lambda key, failed: gates[gate_of[key]].record(
            requests[key][1], failed
        ),
        groups=groups,
    )
    return outcome, gates


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_grouped_run_equals_one_solo_run_per_group(
    tiny_parts, group_injector, data
):
    """Property: one pass carrying several request groups gives every
    group the verdicts, latencies, skips and gate event order of running
    it alone, and the same summed lane-cycles — under deferral (small
    lane caps), check intervals 1/3/8, a forcing fault model
    and gates that retire flip-flops mid-pass."""
    _netlist, workload, _golden, _criterion = tiny_parts
    check_interval = data.draw(st.sampled_from([1, 3, 8]))
    fault_model = data.draw(
        st.sampled_from([None, "intermittent:period=5,on=2,seed=1"])
    )
    injector = group_injector(check_interval, fault_model)
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    n_groups = data.draw(st.integers(2, 4))
    # Few flip-flops, so each one recurs and its gate retires it.
    ff_pool = range(0, n_ffs, n_ffs // 10)
    requests = data.draw(
        st.lists(
            st.tuples(st.integers(first, last - 1), st.sampled_from(ff_pool)),
            min_size=1,
            max_size=60,
        )
    )
    groups = data.draw(
        st.lists(
            st.integers(0, n_groups - 1),
            min_size=len(requests),
            max_size=len(requests),
        )
    )
    max_lanes = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 1000))
    gate_seeds = [f"{seed}:{g}" for g in range(n_groups)]

    grouped, grouped_gates = _gated_run(
        injector, max_lanes, requests, groups, gate_seeds
    )
    grouped_skipped = set(grouped.skipped)
    lane_cycles = passes = 0
    for g in range(n_groups):
        keys = [k for k, group in enumerate(groups) if group == g]
        solo_requests = [requests[k] for k in keys]
        solo, (solo_gate,) = _gated_run(
            injector, max_lanes, solo_requests, None, [gate_seeds[g]]
        )
        assert grouped_gates[g].normalized_events() == solo_gate.normalized_events()
        skipped = {keys[k] for k in solo.skipped}
        assert {k for k in keys if k in grouped_skipped} == skipped
        for local, key in enumerate(keys):
            if key not in skipped:
                assert grouped.verdicts[key] == solo.verdicts[local], key
        lane_cycles += solo.stats.lane_cycles
        passes = max(passes, solo.stats.n_passes)
    assert grouped.stats.lane_cycles == lane_cycles
    assert grouped.stats.n_passes == passes


#: Statistics of one gated run per check interval: lane-cycles,
#: simulated cycles, deferrals, gate skips, passes, early retirements and
#: admit calls.  The property test above compares grouped runs with solo
#: runs of the same code; these pins fix the solo semantics themselves —
#: the check grid restarting after a drain, deferral at the cap with one
#: admit call, retirement timing.
GATED_RUN_PINS = {
    3: (1148, 335, 10, 8, 3, 10, 33),
}


@pytest.mark.parametrize("check_interval", sorted(GATED_RUN_PINS))
def test_gated_run_statistics_are_pinned(tiny_parts, check_interval):
    _assert_gated_run_pins(tiny_parts, check_interval)


def _assert_gated_run_pins(tiny_parts, check_interval):
    """Run the pinned gated request set; return its statistics."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, check_interval=check_interval
    )
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    rng = random.Random(31)
    pool = range(0, n_ffs, n_ffs // 10)
    # Bursts separated by quiet stretches: the pass fills to its cap,
    # defers, drains and fast-forwards.
    requests = [
        (cycle + rng.randrange(2), rng.choice(pool))
        for cycle in range(first, last - 2, 23)
        for _ in range(rng.randrange(3, 9))
    ]
    outcome, (gate,) = _gated_run(injector, 4, requests, None, ["pin"])
    stats = outcome.stats
    assert (
        stats.lane_cycles,
        stats.cycles_simulated,
        stats.deferred,
        stats.policy_skipped,
        stats.n_passes,
        stats.early_retired,
        sum(1 for event in gate.events if event[0] == "admit"),
    ) == GATED_RUN_PINS[check_interval]
    expected = naive_verdicts(injector, requests)
    skipped = set(outcome.skipped)
    for key, verdict in enumerate(expected):
        if key not in skipped:
            assert outcome.verdicts[key] == verdict, key
    return stats


#: SHA-256 of :func:`_gated_verdict_log` (the gate event log of a
#: three-group gated run on the tiny preset) and of the run's verdicts.
#: Recorded before the scheduler answered any request without a lane of
#: its own, so it pins that such answers reach the gates at the retirement
#: checks where their own lanes would have retired.
GATED_VERDICT_ORDER_DIGEST = "cc09aba99c9ddbec6a47d760056931477585a13b767b30f409c43459816e4733"


def _gated_verdict_log(tiny_parts):
    """Run 900 requests in three gated groups; return the event log (admits
    and verdicts, each retirement check's verdicts sorted) and the verdicts."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, check_interval=3
    )
    first, last = workload.active_window
    n_ffs = injector.sim.n_flip_flops
    rng = random.Random(53)
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(900)]
    groups = [rng.randrange(3) for _ in requests]
    n_real = len(requests)
    # A fourth group holds one request per cycle from the window's start to
    # the trace's end, and every one is rejected.  Its admit call comes
    # after the retirement check of its cycle, so the log is cut at every
    # check of the first pass.
    ticks = range(first, golden.n_cycles)
    requests += [(c, 0) for c in ticks]
    groups += [3] * len(ticks)
    gates = [CountingGate(f"order:{g}", n_ffs) for g in range(3)]
    log = []

    def admit(key):
        if key >= n_real:
            log.append(("tick", requests[key][0]))
            return False
        admitted = gates[groups[key]].admit(requests[key][1])
        log.append(("admit", key, admitted))
        return admitted

    def on_verdict(key, failed):
        gates[groups[key]].record(requests[key][1], failed)
        log.append(("verdict", key, failed))

    outcome = AdaptiveScheduler(injector, max_lanes=24).run(
        requests, admit=admit, on_verdict=on_verdict, groups=groups
    )
    normalized, batch = [], []
    for event in log:
        if event[0] == "verdict":
            batch.append(event)
            continue
        normalized += sorted(batch) + [event]
        batch = []
    normalized += sorted(batch)
    skipped = set(outcome.skipped)
    verdicts = [outcome.verdict(k) for k in range(n_real) if k not in skipped]
    return normalized, verdicts, outcome.stats


def test_gated_verdict_order_is_pinned(tiny_parts):
    """A gated three-group run with deferral gives its gates every verdict
    at the same retirement check, and every admit after the same
    verdicts, as the run the digest was recorded from."""
    import hashlib
    import json

    log, verdicts, stats = _gated_verdict_log(tiny_parts)
    assert stats.deferred > 0 and stats.policy_skipped > 0
    digest = hashlib.sha256(json.dumps([log, verdicts]).encode()).hexdigest()
    assert digest == GATED_VERDICT_ORDER_DIGEST


def test_groups_share_one_sweep_per_pass(tiny_parts):
    """Groups spread over the same window are swept once, not once per
    group, and the shared batch keeps every verdict."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, last = workload.active_window
    rng = random.Random(5)
    n_ffs = injector.sim.n_flip_flops
    requests = [(rng.randrange(first, last), rng.randrange(n_ffs)) for _ in range(240)]
    groups = [key % 4 for key in range(len(requests))]
    grouped = AdaptiveScheduler(injector).run(requests, groups=groups)
    assert grouped.verdicts == naive_verdicts(injector, requests)
    assert grouped.stats.n_passes == 1
    solo_cycles = sum(
        AdaptiveScheduler(injector)
        .run([r for r, group in zip(requests, groups) if group == g])
        .stats.cycles_simulated
        for g in range(4)
    )
    assert grouped.stats.cycles_simulated < solo_cycles


def test_groups_must_match_injections(tiny_parts):
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(netlist, workload.testbench, golden, criterion)
    first, _last = workload.active_window
    scheduler = AdaptiveScheduler(injector)
    with pytest.raises(ValueError, match="groups"):
        scheduler.run([(first, 0), (first, 1)], groups=[0])
    with pytest.raises(ValueError, match="negative"):
        scheduler.run([(first, 0)], groups=[-1])


# ------------------------------------------------------ latent-state merging


@pytest.fixture
def merging(monkeypatch):
    """Every scheduler built in the test looks for lanes to merge at every
    retirement check, however few lanes are due (the differential verifier
    runs the scheduler this way)."""
    init = AdaptiveScheduler.__init__

    def merge_at_every_check(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.merge_min_due = 1

    monkeypatch.setattr(AdaptiveScheduler, "__init__", merge_at_every_check)


def _unmerged(injector, max_lanes=None):
    """A scheduler whose checks never look for lanes to merge."""
    scheduler = AdaptiveScheduler(injector, max_lanes=max_lanes)
    scheduler.merge_min_due = 1 << 62
    return scheduler


def _every_ff(injector, cycles):
    return [(c, f) for c in cycles for f in range(injector.sim.n_flip_flops)]


@pytest.mark.parametrize("check_interval", [1, 4])
@pytest.mark.parametrize("max_lanes", [64, None])
def test_merged_lanes_match_naive(tiny_parts, merging, check_interval, max_lanes):
    """One request group: riders get the naive verdicts and latencies, and
    the run does the request-level work of an unmerged run — the same
    passes, deferrals, activations, simulated cycles, lane-cycles and
    early retirements — in no more allocated width."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, check_interval=check_interval
    )
    first, last = workload.active_window
    # Six draws close together (lanes of one cycle never share a row) and
    # six spread out.
    cycles = sorted(random.Random(3).sample(range(first, last), 6))
    requests = _every_ff(injector, cycles + list(range(first + 10, first + 16)))
    merged = AdaptiveScheduler(injector, max_lanes=max_lanes).run(requests)
    assert merged.verdicts == naive_verdicts(injector, requests)
    assert merged.stats.merged > 0
    plain = _unmerged(injector, max_lanes).run(requests)
    assert plain.stats.merged == 0
    for name in (
        "n_passes",
        "deferred",
        "activations",
        "cycles_simulated",
        "lane_cycles",
        "early_retired",
    ):
        assert getattr(merged.stats, name) == getattr(plain.stats, name), name
    # A pass at its cap keeps its width; an elastic one truncates sooner.
    assert merged.stats.width_cycles <= plain.stats.width_cycles
    if max_lanes is None:
        assert merged.stats.width_cycles < plain.stats.width_cycles
    assert 0 < merged.stats.lane_occupancy() <= 1.0


def test_merged_groups_equal_solo_runs(tiny_parts, group_injector, merging):
    """Three gated request groups in one pass: each group's verdicts, skips
    and gate events equal its solo run's, lanes merge only within a group,
    and lane-cycles add up to the solo runs'."""
    _netlist, workload, _golden, _criterion = tiny_parts
    injector = group_injector(3, None)
    first, last = workload.active_window
    rng = random.Random(8)
    requests = _every_ff(injector, sorted(rng.sample(range(first, last), 4)))
    groups = [rng.randrange(3) for _ in requests]
    gate_seeds = [f"merge:{g}" for g in range(3)]
    grouped, gates = _gated_run(injector, None, requests, groups, gate_seeds)
    assert grouped.stats.merged > 0
    expected = naive_verdicts(injector, requests)
    skipped = set(grouped.skipped)
    for key, verdict in enumerate(expected):
        if key not in skipped:
            assert grouped.verdicts[key] == verdict, key
    lane_cycles = 0
    for g in range(3):
        keys = [k for k, group in enumerate(groups) if group == g]
        solo, (solo_gate,) = _gated_run(
            injector, None, [requests[k] for k in keys], None, [gate_seeds[g]]
        )
        assert gates[g].normalized_events() == solo_gate.normalized_events()
        assert {k for k in keys if k in skipped} == {keys[k] for k in solo.skipped}
        lane_cycles += solo.stats.lane_cycles
    assert grouped.stats.lane_cycles == lane_cycles


@pytest.mark.parametrize("check_interval", sorted(GATED_RUN_PINS))
def test_gated_run_statistics_hold_with_merging(tiny_parts, merging, check_interval):
    """Merging leaves every pinned request-level statistic of a gated run."""
    stats = _assert_gated_run_pins(tiny_parts, check_interval)
    assert stats.merged > 0


@pytest.mark.parametrize(
    "fault_model", ["mbu:size=3,radius=1,seed=0", "intermittent:period=5,on=2,seed=1"]
)
def test_merging_under_fault_models(tiny_parts, merging, fault_model):
    """MBU lanes merge like SEU lanes; a forcing model's lanes all carry a
    live forcing plan, which a later duty-on cycle re-applies, so none
    merge."""
    netlist, workload, golden, criterion = tiny_parts
    injector = FaultInjector(
        netlist, workload.testbench, golden, criterion, fault_model=fault_model
    )
    first, last = workload.active_window
    requests = _every_ff(injector, sorted(random.Random(3).sample(range(first, last), 6)))
    outcome = AdaptiveScheduler(injector).run(requests)
    assert outcome.verdicts == naive_verdicts(injector, requests)
    if fault_model.startswith("mbu"):
        assert outcome.stats.merged > 0
    else:
        assert outcome.stats.merged == 0


#: Fuzzed circuits whose loopback slots and multi-row deviations both
#: matter to the merge rule (every other seed happens to pass the
#: mutations below).
LOOPBACK_MERGE_SEEDS = (3, 5, 20)


def _loopback_mismatches():
    """Exhaustive scheduled runs on fuzzed loopback circuits, with the
    criterion blind to the loopback sources: divergence must travel the
    loopback to show.  Returns (mismatching verdicts, merged requests)."""
    from repro.faultinjection.classify import AnyOutputCriterion
    from repro.verify.fuzzer import FuzzSpec, generate_netlist, generate_testbench

    mismatches = merged = 0
    for seed in LOOPBACK_MERGE_SEEDS:
        spec = FuzzSpec(seed=seed, p_loopback=1.0, n_cycles=40)
        netlist = generate_netlist(spec)
        testbench = generate_testbench(netlist, spec)
        sources = {src for path in testbench.loopbacks for src in path.sources}
        assert sources
        criterion = AnyOutputCriterion(
            nets=[net for net in netlist.outputs if net not in sources]
        )
        golden = testbench.run_golden()
        injector = FaultInjector(
            netlist, testbench, golden, criterion, check_interval=2
        )
        requests = _every_ff(injector, range(golden.n_cycles))
        outcome = AdaptiveScheduler(injector).run(requests)
        expected = naive_verdicts(injector, requests)
        mismatches += sum(g != w for g, w in zip(outcome.verdicts, expected))
        merged += outcome.stats.merged
    return mismatches, merged


def test_merged_lanes_match_naive_through_loopbacks(merging):
    mismatches, merged = _loopback_mismatches()
    assert mismatches == 0
    assert merged > 0


def _ignores_loopback_slots(rows, multi, slots, excluded, active):
    return rows & ~multi & ~excluded & active


def _accepts_two_rows(rows, multi, slots, excluded, active):
    return rows & ~slots & ~excluded & active


@pytest.mark.parametrize("mutant", [_ignores_loopback_slots, _accepts_two_rows])
def test_merge_rule_mutants_are_caught(merging, monkeypatch, mutant):
    """A merge that ignores in-flight loopback slots, or that accepts lanes
    differing in two rows (whose bit-planes OR two positions together),
    changes verdicts the loopback property test compares."""
    import repro.faultinjection.scheduler as scheduler_mod

    monkeypatch.setattr(scheduler_mod, "_merge_candidates", mutant)
    mismatches, _merged = _loopback_mismatches()
    assert mismatches > 0


def test_diverging_row_planes_locate_the_lone_row():
    """Seeded property: the merge probe's ``diff`` is the plain probe's,
    ``multi`` holds the lanes with two or more deviating rows, and the
    bit-planes spell the one deviating row of every other diverging lane."""
    from repro.circuits import make_xgmac

    sim = CompiledSimulator(make_xgmac("xgmac_tiny"), n_lanes=70)
    rng = random.Random(17)
    rows = rng.sample(sim._ff_q, 37)
    for _ in range(20):
        sim.reset()
        golden = bytes(rng.getrandbits(1) for _ in rows)
        for k, idx in enumerate(rows):
            sim.values[idx] = sim.mask if golden[k] else 0
        for lane in range(sim.n_lanes):
            for k in rng.sample(range(len(rows)), rng.choice([0, 0, 1, 1, 1, 2, 5])):
                sim.values[rows[k]] ^= 1 << lane
        active = rng.getrandbits(sim.n_lanes)
        diff, multi, planes = sim.diverging_row_planes(rows, golden, active)
        assert diff == sim.diverging_rows(rows, golden, active)
        for lane in range(sim.n_lanes):
            differing = [
                k
                for k, idx in enumerate(rows)
                if (active >> lane) & 1
                and ((sim.values[idx] >> lane) ^ golden[k]) & 1
            ]
            assert bool((multi >> lane) & 1) == (len(differing) >= 2)
            if len(differing) == 1:
                position = sum(((plane >> lane) & 1) << b for b, plane in enumerate(planes))
                assert position == differing[0]


# ------------------------------------------------------------- lane algebra


def _per_lane_loop(bits):
    """The set lanes of *bits*, peeled off one at a time."""
    lanes = []
    while bits:
        low = bits & -bits
        lanes.append(low.bit_length() - 1)
        bits ^= low
    return lanes


@pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 16_385, 20_000])
def test_set_lanes_and_lanes_mask_match_the_per_lane_loop(n_bits):
    rng = random.Random(n_bits)
    values = [0, (1 << n_bits) - 1, rng.getrandbits(n_bits), rng.getrandbits(n_bits)]
    if n_bits:
        # Sparse values: a few lanes anywhere in a wide mask.
        for count in (1, 5, 16, 17, 40):
            values.append(sum({1 << rng.randrange(n_bits) for _ in range(count)}))
    for bits in values:
        lanes = _per_lane_loop(bits)
        assert set_lanes(bits) == lanes
        assert lanes_mask(lanes) == bits
        shuffled = lanes[:]
        rng.shuffle(shuffled)
        assert lanes_mask(shuffled) == bits


def test_diverging_rows_probe(tiny_mac):
    sim = CompiledSimulator(tiny_mac, n_lanes=5)
    sim.reset()
    q0 = sim._ff_q[0]
    q1 = sim._ff_q[1]
    sim.values[q0] = 1 << 2  # lane 2 high
    diff = sim.diverging_rows([q0, q1], bytes([0, 0]), sim.mask)
    assert diff == 0b00100
    # Golden bits are one byte per row: a golden-high q0 makes every lane
    # but lane 2 diverge.
    diff = sim.diverging_rows([q0, q1], bytes([1, 0]), sim.mask)
    assert diff == 0b11011
    # Inactive lanes are masked out of the probe.
    diff = sim.diverging_rows([q0], bytes([0]), 1 << 0)
    assert diff == 0


def _looped_diverging_rows(sim, rows, golden, active):
    """Reference: the per-row Python loop the C-level probe replaced."""
    diff = 0
    for k, idx in enumerate(rows):
        diff |= (sim.values[idx] ^ (sim.mask if golden[k] else 0)) & active
    return diff


def _looped_diverging_row_planes(sim, rows, golden, active):
    """Reference: the merge probe as a per-row loop over every row."""
    planes = [0] * max(1, (len(rows) - 1).bit_length())
    diff = multi = 0
    for k, idx in enumerate(rows):
        deviating = (sim.values[idx] ^ (sim.mask if golden[k] else 0)) & active
        if not deviating:
            continue
        multi |= diff & deviating
        diff |= deviating
        for b in range(len(planes)):
            if (k >> b) & 1:
                planes[b] |= deviating
    return diff, multi, planes


@pytest.fixture(scope="module")
def probe_sim():
    from repro.circuits import make_xgmac

    sim = CompiledSimulator(make_xgmac("xgmac_tiny"))
    assert len(sim.values) >= 775
    return sim


@pytest.mark.parametrize("golden_kind", ["random", "zeros", "ones"])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 775])
@pytest.mark.parametrize("width", [1, 64, 65, 4097])
def test_row_probes_match_the_per_row_loops(probe_sim, width, n_rows, golden_kind):
    """Seeded property: on random in-mask values, both divergence probes
    return exactly what the per-row loops return, for any lane width, row
    count and golden row."""
    sim = probe_sim
    rng = random.Random(f"{width}:{n_rows}:{golden_kind}")
    sim.resize_lanes(width)
    for trial in range(4):
        rows = rng.sample(range(len(sim.values)), n_rows)
        golden = bytes(
            {"random": rng.getrandbits(1), "zeros": 0, "ones": 1}[golden_kind]
            for _ in rows
        )
        for k, idx in enumerate(rows):
            # Mostly golden rows with a few deviating lanes, some all random.
            if rng.random() < 0.2:
                sim.values[idx] = rng.getrandbits(width)
            else:
                sparse = sum({1 << rng.randrange(width) for _ in range(rng.randrange(3))})
                sim.values[idx] = (sim.mask if golden[k] else 0) ^ sparse
        active = (sim.mask, rng.getrandbits(width), 0, 1)[trial]
        assert sim.diverging_rows(rows, golden, active) == _looped_diverging_rows(
            sim, rows, golden, active
        )
        assert sim.diverging_row_planes(
            rows, golden, active
        ) == _looped_diverging_row_planes(sim, rows, golden, active)
