"""Differential verification subsystem tests.

Property-based cross-checks of the three simulation engines (compiled
bit-parallel, event-driven, reference oracle) over fuzzed circuits, the
metamorphic injector-vs-brute-force check, deterministic shrinking, and the
fault-detection power of the harness (a corrupted cell template must be
caught).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.compiled as compiled_mod
from repro.faultinjection import InjectionPlan
from repro.netlist import DEFAULT_LIBRARY
from repro.sim.compiled import _TEMPLATES
from repro.verify import (
    FUZZ_SCALES,
    FuzzSpec,
    OracleSimulator,
    brute_force_fault,
    generate_netlist,
    generate_schedule,
    generate_testbench,
    rebuild_netlist,
    run_event_differential,
    run_fault_model_check,
    run_generated_check,
    run_injector_check,
    run_lane_differential,
    run_scheduler_check,
    shrink_netlist,
    verify_seed,
    verify_seeds,
)

# ------------------------------------------------------------- strategies

fuzz_specs = st.builds(
    FuzzSpec,
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(4, 32),
    n_ffs=st.integers(1, 6),
    n_inputs=st.integers(2, 5),
    n_outputs=st.integers(1, 5),
    max_depth=st.integers(2, 7),
    max_fanout=st.integers(2, 8),
    n_ties=st.integers(0, 2),
    p_dffr=st.floats(0.0, 1.0),
    p_loopback=st.floats(0.0, 1.0),
    n_cycles=st.integers(8, 24),
)


# ------------------------------------------------------------------ fuzzer


@given(spec=fuzz_specs)
@settings(max_examples=40, deadline=None)
def test_fuzzed_netlists_are_valid_and_deterministic(spec):
    netlist = generate_netlist(spec)
    netlist.validate()
    stats = netlist.stats()
    assert stats.n_sequential >= 1
    assert stats.n_combinational == spec.n_gates
    assert stats.max_logic_depth <= spec.max_depth
    assert 1 <= stats.n_outputs <= spec.n_outputs
    # Same spec, same structure.
    again = generate_netlist(spec)
    assert [
        (c.name, c.type_name, sorted(c.connections.items()))
        for c in netlist.iter_cells()
    ] == [
        (c.name, c.type_name, sorted(c.connections.items()))
        for c in again.iter_cells()
    ]
    assert generate_schedule(netlist, spec) == generate_schedule(again, spec)


def test_fuzzer_covers_entire_template_library():
    """Across seeds, every compiled-simulator template gets instantiated."""
    seen = set()
    for seed in range(30):
        netlist = generate_netlist(FuzzSpec(seed=seed, n_gates=60, n_ties=2))
        seen.update(c.ctype.name for c in netlist.iter_cells())
        if set(_TEMPLATES) <= seen:
            break
    assert set(_TEMPLATES) <= seen, f"never generated: {set(_TEMPLATES) - seen}"


def test_fuzzer_rejects_non_combinational_restriction():
    with pytest.raises(ValueError):
        generate_netlist(FuzzSpec(seed=0, cell_types=("DFF",)))


def test_fuzz_scales_exist_and_generate():
    for scale, spec in FUZZ_SCALES.items():
        netlist = generate_netlist(spec)
        assert len(netlist) > 0, scale


# ------------------------------------------------------------------ oracle


def test_oracle_matches_library_truth_tables():
    """The independent oracle functions agree with the cell library on every
    binary input combination (they share no code, so this is a real check)."""
    from repro.verify.oracle import ORACLE_FUNCTIONS

    for name, fn in ORACLE_FUNCTIONS.items():
        ctype = DEFAULT_LIBRARY[name]
        if ctype.function is None:
            continue
        for bits in itertools.product((0, 1), repeat=len(ctype.inputs)):
            assert fn(bits) == ctype.evaluate(list(bits), mask=1), (name, bits)


def test_oracle_template_key_sets_match():
    from repro.verify.oracle import ORACLE_FUNCTIONS

    assert set(ORACLE_FUNCTIONS) == set(_TEMPLATES)


def test_oracle_detects_combinational_cycle():
    from repro.netlist import Netlist

    netlist = Netlist("cyc")
    netlist.add_input("clk", is_clock=True)
    netlist.add_cell("i0", "INV", {"A": "a", "Z": "b"})
    netlist.add_cell("i1", "INV", {"A": "b", "Z": "a"})
    netlist.add_cell("ff", "DFF", {"D": "a", "CK": "clk", "Q": "q"})
    netlist.add_output("q")
    with pytest.raises(Exception):
        OracleSimulator(netlist)  # validate() already rejects the cycle


# ------------------------------------------------- engine-vs-oracle agreement


@given(spec=fuzz_specs)
@settings(max_examples=15, deadline=None)
def test_compiled_lanes_agree_with_oracle(spec):
    netlist = generate_netlist(spec)
    divergences, comparisons = run_lane_differential(netlist, spec)
    assert comparisons > 0
    assert not divergences, [str(d) for d in divergences]


@given(spec=fuzz_specs)
@settings(max_examples=10, deadline=None)
def test_event_sim_agrees_with_oracle_once_resolved(spec):
    netlist = generate_netlist(spec)
    divergences, _comparisons = run_event_differential(netlist, spec)
    assert not divergences, [str(d) for d in divergences]


@given(spec=fuzz_specs)
@settings(max_examples=8, deadline=None)
def test_injector_verdicts_match_brute_force(spec):
    netlist = generate_netlist(spec)
    divergences, checked = run_injector_check(netlist, spec, n_injection_cycles=2)
    assert checked > 0
    assert not divergences, [str(d) for d in divergences]


def test_verify_seed_full_stack_and_sweep():
    report = verify_seed(FUZZ_SCALES["tiny"].with_seed(11))
    assert report.ok and report.comparisons > 0 and report.injections_checked > 0
    summary = verify_seeds(3, scale="tiny")
    assert summary.ok
    assert summary.n_seeds == 3
    assert summary.n_comparisons > 0


def test_verify_seeds_unknown_scale():
    with pytest.raises(ValueError):
        verify_seeds(1, scale="nope")


#: Engine-vs-oracle comparisons per tiny fuzz seed.  Every seed also replays
#: 100 injections: 12 injector, 24 scheduler (single and grouped) and 64
#: fault-model replays.  A referee that silently drops a comparison moves
#: these counts.
TINY_COMPARISONS = {0: 2226, 1: 2230, 2: 2228, 3: 2229, 4: 2231}


@pytest.mark.parametrize("seed", sorted(TINY_COMPARISONS))
def test_verify_seed_counts_are_pinned(seed):
    spec = FUZZ_SCALES["tiny"].with_seed(seed)
    report = verify_seed(spec)
    assert report.ok
    assert report.comparisons == TINY_COMPARISONS[seed]
    assert report.injections_checked == 100
    netlist = generate_netlist(spec)
    assert run_injector_check(netlist, spec) == ([], 12)
    assert run_scheduler_check(netlist, spec) == ([], 24)
    assert run_fault_model_check(netlist, spec) == ([], 64)


def test_verify_seed_replays_merged_lanes():
    """The scheduled-vs-naive replay looks for lanes to merge at every
    check: on this seed three requests ride a merged lane, and their
    verdicts still match the naive batches."""
    report = verify_seed(FUZZ_SCALES["tiny"].with_seed(70))
    assert report.ok
    assert report.merged == 3
    assert report.comparisons == 2227


@pytest.mark.parametrize("seed", [115, 119, 197])
def test_verify_seed_replays_faults_in_flight_on_a_loopback(seed):
    """On these seeds some retirement check finds a lane whose relevant
    flip-flops are golden again while a corrupted value is still in flight
    in its loopback pipeline; it fails later.  A slot probe that ignored
    the pipelines would retire that lane as converged, and the scheduled
    and grouped replays would then disagree with the naive batches."""
    report = verify_seed(FUZZ_SCALES["tiny"].with_seed(seed))
    assert report.ok, [str(d) for d in report.divergences]


def test_generated_check_count_is_pinned():
    assert run_generated_check() == ([], 64)


# --------------------------------------------------- fault-detection power


def _seed_containing(cell_name: str) -> FuzzSpec:
    for seed in range(200):
        spec = FuzzSpec(seed=seed)
        netlist = generate_netlist(spec)
        cone = rebuild_netlist(netlist)  # only logic that can reach an output
        if any(c.ctype.name == cell_name for c in cone.iter_cells()):
            return spec
    raise AssertionError(f"no fuzz seed produced an observable {cell_name}")


def test_corrupted_template_is_caught(monkeypatch):
    """Acceptance check: a deliberately wrong cell template diverges."""
    spec = _seed_containing("NAND2")
    netlist = generate_netlist(spec)
    monkeypatch.setitem(
        compiled_mod._TEMPLATES, "NAND2", "v[{o}] = (v[{i0}] & v[{i1}]) & m"
    )
    divergences, _ = run_lane_differential(netlist, spec)
    assert divergences, "corrupted NAND2 template went undetected"
    first = divergences[0]
    assert first.kind == "compiled-vs-oracle"
    assert first.net is not None and first.cycle >= 0
    assert first.values["compiled"] != first.values["oracle"]


def test_corrupted_oracle_model_is_caught(monkeypatch):
    """Symmetry: the harness also catches a wrong *oracle* model, so a
    template bug cannot hide behind an identical oracle bug."""
    from repro.verify import oracle as oracle_mod

    spec = _seed_containing("XOR2")
    netlist = generate_netlist(spec)
    monkeypatch.setitem(
        oracle_mod.ORACLE_FUNCTIONS, "XOR2", lambda a: 1 if a[0] == a[1] else 0
    )
    divergences, _ = run_lane_differential(netlist, spec)
    assert divergences


def test_grouped_scheduler_divergence_is_caught(monkeypatch):
    """The scheduled-vs-naive mode also replays the requests as three
    request groups: a grouped run that loses a verdict is reported."""
    import repro.verify.diff as diff_mod
    from repro.faultinjection import AdaptiveScheduler

    class DroppingScheduler(AdaptiveScheduler):
        def run(self, injections, *args, groups=None, **kwargs):
            outcome = super().run(injections, *args, groups=groups, **kwargs)
            if groups is not None:
                outcome.failed[0] ^= 1
                outcome.latency[0] = 0
            return outcome

    spec = FUZZ_SCALES["tiny"].with_seed(11)
    netlist = generate_netlist(spec)
    assert not diff_mod.run_scheduler_check(netlist, spec)[0]
    monkeypatch.setattr(diff_mod, "AdaptiveScheduler", DroppingScheduler)
    divergences, _ = diff_mod.run_scheduler_check(netlist, spec)
    assert [d.kind for d in divergences] == ["grouped-vs-single"]


def _replay_kinds(netlist, spec):
    """First divergence kind of each replay mode (``None`` when clean)."""
    runs = [
        run_injector_check(netlist, spec),
        run_scheduler_check(netlist, spec),
        run_fault_model_check(netlist, spec),
        run_generated_check(),
    ]
    return [divergences[0].kind if divergences else None for divergences, _ in runs]


def test_flipped_batch_verdict_is_caught_by_every_replay(monkeypatch):
    """A ``run_batch`` that inverts lane 0's verdict is caught against the
    oracle and poisons the naive referee the scheduler is held to."""
    from repro.faultinjection import FaultInjector

    run_batch = FaultInjector.run_batch

    def flipping_run_batch(self, cycle, ff_indices):
        outcome = run_batch(self, cycle, ff_indices)
        outcome.failed_mask ^= 1
        if outcome.failed_mask & 1:
            outcome.latencies[0] = 0
        else:
            outcome.latencies.pop(0, None)
        return outcome

    spec = FUZZ_SCALES["tiny"].with_seed(11)
    netlist = generate_netlist(spec)
    monkeypatch.setattr(FaultInjector, "run_batch", flipping_run_batch)
    assert _replay_kinds(netlist, spec) == [
        "injector-vs-bruteforce",
        "scheduled-vs-naive",
        "mbu:size=3,radius=1,seed=0-vs-bruteforce",
        "generated-injector-vs-bruteforce",
    ]


def test_flipped_scheduled_verdict_is_caught_by_every_replay(monkeypatch):
    """A scheduler that inverts request 0's verdict is caught by each mode
    that replays scheduled verdicts."""
    from repro.faultinjection import AdaptiveScheduler

    run = AdaptiveScheduler.run

    def flipping_run(self, injections, *args, **kwargs):
        outcome = run(self, injections, *args, **kwargs)
        outcome.failed[0] ^= 1
        return outcome

    spec = FUZZ_SCALES["tiny"].with_seed(11)
    netlist = generate_netlist(spec)
    monkeypatch.setattr(AdaptiveScheduler, "run", flipping_run)
    assert _replay_kinds(netlist, spec) == [
        None,
        "scheduled-vs-naive",
        "mbu:size=3,radius=1,seed=0-scheduled-vs-bruteforce",
        "generated-scheduled-vs-naive",
    ]


# -------------------------------------------------------------- shrinking


def test_shrink_is_deterministic_and_minimizing():
    spec = _seed_containing("NAND2")
    netlist = generate_netlist(spec)

    def contains_nand2(candidate):
        return any(c.ctype.name == "NAND2" for c in candidate.iter_cells())

    small = shrink_netlist(netlist, contains_nand2)
    small.validate()
    assert contains_nand2(small)
    assert len(small) < len(netlist)
    again = shrink_netlist(netlist, contains_nand2)
    assert [
        (c.name, c.type_name) for c in small.iter_cells()
    ] == [(c.name, c.type_name) for c in again.iter_cells()]


def test_shrink_reduces_a_real_divergence(monkeypatch):
    """Shrinking an actual corrupted-template failure keeps it failing."""
    spec = _seed_containing("NOR2")
    netlist = generate_netlist(spec)
    monkeypatch.setitem(
        compiled_mod._TEMPLATES, "NOR2", "v[{o}] = (v[{i0}] | v[{i1}]) & m"
    )

    def diverges(candidate):
        found, _ = run_lane_differential(candidate, spec, n_lanes=2)
        return bool(found)

    assert diverges(netlist)
    small = shrink_netlist(netlist, diverges)
    assert diverges(small)
    assert len(small) <= len(netlist)
    assert any(c.ctype.name == "NOR2" for c in small.iter_cells())


def test_shrink_rejects_passing_predicate():
    netlist = generate_netlist(FuzzSpec(seed=3))
    with pytest.raises(ValueError):
        shrink_netlist(netlist, lambda nl: False)


def test_rebuild_sweeps_dead_logic():
    spec = FuzzSpec(seed=5)
    netlist = generate_netlist(spec)
    cone = rebuild_netlist(netlist, outputs=[netlist.outputs[0]])
    cone.validate()
    assert len(cone) <= len(netlist)
    assert cone.outputs == [netlist.outputs[0]]
    # Every surviving cell must reach the kept output (no dead cells).
    from repro.faultinjection import relevant_flip_flops

    live_ffs = relevant_flip_flops(cone, cone.outputs)
    assert {ff.name for ff in cone.flip_flops()} == live_ffs


# ------------------------------------------------ brute force corner cases


def test_brute_force_benign_fault():
    """A fault injected into an FF with no path to outputs never fails."""
    spec = FuzzSpec(seed=9, p_loopback=0.0)
    netlist = generate_netlist(spec)
    testbench = generate_testbench(netlist, spec)
    golden = testbench.run_golden()
    from repro.faultinjection import relevant_flip_flops

    relevant = relevant_flip_flops(netlist, list(netlist.outputs))
    ffs = netlist.flip_flops()
    benign = [i for i, ff in enumerate(ffs) if ff.name not in relevant]
    if not benign:
        pytest.skip("seed 9 has no benign flip-flop")
    plan = InjectionPlan(flips=(benign[0],))
    failed, latency = brute_force_fault(netlist, testbench, golden, 4, plan)
    assert failed is False and latency is None
