"""Testbench framework tests: schedules, loopback, golden traces, activity."""

from dataclasses import replace

import pytest

from repro.circuits import build_workload_for, build_xgmac_workload, get_circuit, make_xgmac
from repro.sim import (
    ActivityTrace,
    CompiledSimulator,
    LoopbackPath,
    NetActivity,
    ScheduleBuilder,
    Testbench,
    collect_net_activity,
)
from repro.verify import FUZZ_SCALES, generate_netlist, generate_testbench


def test_schedule_builder_level_semantics():
    sb = ScheduleBuilder(["a", "b"])
    sb.drive(0, "a", 1)
    sb.drive(3, "a", 0)
    sb.pulse(1, "b")
    packed = sb.compile(5)
    a_bits = [(v >> 0) & 1 for v in packed]
    b_bits = [(v >> 1) & 1 for v in packed]
    assert a_bits == [1, 1, 1, 0, 0]
    assert b_bits == [0, 1, 0, 0, 0]


def test_schedule_builder_word_drive():
    sb = ScheduleBuilder([f"d[{i}]" for i in range(4)])
    sb.drive_word(2, "d", 4, 0b1010)
    packed = sb.compile(3)
    assert packed[2] == 0b1010
    assert packed[1] == 0


def test_schedule_builder_unknown_input():
    sb = ScheduleBuilder(["a"])
    with pytest.raises(KeyError):
        sb.drive(0, "zzz", 1)


def test_loopback_validation():
    with pytest.raises(ValueError):
        LoopbackPath(sources=("a",), targets=("b", "c"))
    with pytest.raises(ValueError):
        LoopbackPath(sources=("a",), targets=("b",), delay=0)


def test_golden_trace_shapes(tiny_workload, tiny_golden):
    trace = tiny_golden
    assert trace.n_cycles == tiny_workload.testbench.n_cycles
    assert len(trace.ff_state) == trace.n_cycles + 1
    assert len(trace.outputs) == trace.n_cycles
    assert len(trace.applied_inputs) == trace.n_cycles


def test_golden_trace_counts_consistent(tiny_golden):
    ones = tiny_golden.ff_ones_counts()
    toggles = tiny_golden.ff_toggle_counts()
    n = tiny_golden.n_cycles
    for i, name in enumerate(tiny_golden.ff_names):
        assert 0 <= ones[i] <= n
        assert 0 <= toggles[i] <= n
        # Parity argument: starting and ending at the recorded states, the
        # number of toggles has the parity of start ^ end.
        start = tiny_golden.ff_bit(i, 0)
        end = tiny_golden.ff_bit(i, n)
        assert toggles[i] % 2 == (start ^ end)


def test_activity_ratios_sum_to_one(tiny_golden):
    activity = ActivityTrace.from_golden(tiny_golden)
    for z, o in zip(activity.at_zero, activity.at_one):
        assert abs(z + o - 1.0) < 1e-12
        assert 0.0 <= z <= 1.0


def test_loopback_targets_must_be_inputs(tiny_mac):
    with pytest.raises(ValueError, match="not a primary output"):
        Testbench(
            tiny_mac,
            [0] * 4,
            [LoopbackPath(sources=("pkt_tx_val",), targets=("xgmii_rxc",))],
        )


def test_golden_run_is_deterministic(tiny_workload):
    a = tiny_workload.testbench.run_golden()
    b = tiny_workload.testbench.run_golden()
    assert a.ff_state == b.ff_state
    assert a.outputs == b.outputs
    assert a.applied_inputs == b.applied_inputs


# ------------------------------------------- golden rows vs per-cycle replay
#
# ``GoldenTrace`` sees the golden run one lane per cycle; the references
# below walk it cycle by cycle instead, the way the activity statistics
# were computed before, and must give the same numbers exactly.


def _peeled_ff_counts(trace):
    """Per flip-flop ``(ones, toggles)`` by peeling the set bits of every
    packed state (and of every pair of consecutive states) one at a time."""
    ones = [0] * len(trace.ff_names)
    toggles = [0] * len(trace.ff_names)
    for cycle in range(trace.n_cycles):
        state = trace.ff_state[cycle]
        changed = state ^ trace.ff_state[cycle + 1]
        for counts, bits in ((ones, state), (toggles, changed)):
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1
                bits ^= low
    return ones, toggles


def _replayed_net_values(netlist, golden):
    """The reset-settled net values and every net's value after each
    cycle's settle, from a one-lane open-loop replay of the applied
    inputs."""
    sim = CompiledSimulator(netlist, n_lanes=1)
    sim.reset()
    baseline = list(sim.values)
    per_cycle = []
    for vector in golden.applied_inputs:
        for i, name in enumerate(golden.input_names):
            sim.set_input(name, (vector >> i) & 1)
        sim.eval_comb()
        per_cycle.append(list(sim.values))
        sim.tick()
    return sim.net_index, baseline, per_cycle


def _replayed_net_activity(netlist, golden):
    """Per-net ``NetActivity`` counted cycle by cycle over the replay."""
    net_index, previous, per_cycle = _replayed_net_values(netlist, golden)
    ones = [0] * len(previous)
    toggles = [0] * len(previous)
    for values in per_cycle:
        for idx, value in enumerate(values):
            ones[idx] += value
            if value != previous[idx]:
                toggles[idx] += 1
                previous[idx] = value
    n = max(golden.n_cycles, 1)
    return {
        name: NetActivity(at_one=ones[idx] / n, toggle_rate=toggles[idx] / n)
        for name, idx in net_index.items()
    }


def _fuzzed_loopback_case():
    spec = replace(FUZZ_SCALES["mini"], seed=2, p_loopback=1.0)
    netlist = generate_netlist(spec)
    testbench = generate_testbench(netlist, spec)
    assert testbench.loopbacks
    return netlist, testbench


def _mesh_tiny_case():
    netlist = get_circuit("mesh_tiny")
    workload = build_workload_for("mesh_tiny", netlist, n_frames=2, gap=8, seed=0)
    return netlist, workload.testbench


@pytest.fixture(scope="module", params=["xgmac_tiny", "mesh_tiny", "fuzz_loopback"])
def golden_case(request, tiny_mac, tiny_workload, tiny_golden):
    if request.param == "xgmac_tiny":
        assert tiny_workload.testbench.loopbacks
        return tiny_mac, tiny_golden
    netlist, testbench = (
        _mesh_tiny_case() if request.param == "mesh_tiny" else _fuzzed_loopback_case()
    )
    return netlist, testbench.run_golden()


def test_ff_counts_match_the_bit_peeling_reference(golden_case):
    _netlist, golden = golden_case
    ones, toggles = _peeled_ff_counts(golden)
    assert golden.ff_ones_counts() == ones
    assert golden.ff_toggle_counts() == toggles
    activity = ActivityTrace.from_golden(golden)
    assert activity.state_changes == toggles
    assert any(toggles) and any(ones)


def test_net_rows_match_the_per_cycle_replay(golden_case):
    netlist, golden = golden_case
    net_index, _baseline, per_cycle = _replayed_net_values(netlist, golden)
    rows = golden.net_rows(CompiledSimulator(netlist, n_lanes=1))
    for c, values in enumerate(per_cycle):
        assert [(row >> c) & 1 for row in rows] == values, c
    assert all(row >> golden.n_cycles == 0 for row in rows)


def test_net_activity_matches_the_per_cycle_replay(golden_case):
    netlist, golden = golden_case
    assert collect_net_activity(netlist, golden) == _replayed_net_activity(netlist, golden)


def test_cycle_parallel_settle_reproduces_the_golden_outputs():
    """One settle with lane *c* loaded with cycle *c* (the rows the
    injector's release table and the net activity read): its outputs are
    the recorded golden outputs of every cycle of the full MAC."""
    netlist = make_xgmac("xgmac")
    workload = build_xgmac_workload(netlist, n_frames=3, min_len=4, max_len=7)
    golden = workload.testbench.run_golden()
    sim = CompiledSimulator(netlist, n_lanes=1)
    rows = golden.net_rows(sim)
    outputs = [sim.net_index[name] for name in netlist.outputs]
    for c in range(golden.n_cycles):
        packed = sum(((rows[row] >> c) & 1) << k for k, row in enumerate(outputs))
        assert packed == golden.outputs[c], c
