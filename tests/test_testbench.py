"""Testbench framework tests: schedules, loopback, golden traces, activity."""

import pytest

from repro.sim import (
    ActivityTrace,
    LoopbackPath,
    ScheduleBuilder,
    Testbench,
)


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
