"""Circuit-generator tests: CRC, FIFO, FSM, counters, registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    available_circuits,
    crc32_bytes,
    crc32_step,
    crc_bytes_msb_first,
    get_circuit,
    make_counter,
    make_gray_counter,
    make_lfsr,
    make_shift_register,
)
from repro.circuits.fifo import add_sync_fifo
from repro.circuits.fsm import FSM
from repro.sim import CompiledSimulator
from repro.synth import Module, synthesize
from repro.synth.expr import Const


# ------------------------------------------------------------------- CRC


@given(data=st.lists(st.integers(0, 255), min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_crc_append_property(data):
    """Appending the CRC (MSB first) drives the register back to zero."""
    crc = crc32_bytes(data)
    assert crc32_bytes(list(data) + list(crc_bytes_msb_first(crc))) == 0


@given(
    crc=st.integers(0, 2**32 - 1),
    b1=st.integers(0, 255),
    b2=st.integers(0, 255),
)
@settings(max_examples=40, deadline=None)
def test_crc_step_linearity(crc, b1, b2):
    """CRC update is linear over GF(2) (superposition)."""
    combined = crc32_step(crc, b1 ^ b2)
    split = crc32_step(crc, b1) ^ crc32_step(0, b2) ^ crc32_step(0, 0)
    assert combined == split


def test_crc_rtl_matches_golden_model():
    """The synthesized byte-wise CRC network equals the integer model."""
    m = Module("crcdut")
    data = m.input_bus("d", 8)
    load = m.input("load")
    crc = m.reg_bus("crc", 32)
    from repro.circuits.crc import crc32_update_word
    from repro.synth.wordlib import mux_word

    m.next(crc, mux_word(load, crc32_update_word(crc, data), crc))
    m.output_bus("crc_o", crc)
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("load", 1)
    expected = 0
    for byte in [0x00, 0xFF, 0x12, 0xAB, 0x55, 0x99]:
        sim.set_word("d", 8, byte)
        sim.eval_comb()
        sim.tick()
        expected = crc32_step(expected, byte)
        sim.eval_comb()
        assert sim.get_word("crc_o", 32) == expected


# ------------------------------------------------------------------ FIFO


def build_fifo_dut(width=4, depth=4):
    m = Module("fifodut")
    wr = m.input("wr")
    rd = m.input("rd")
    din = m.input_bus("din", width)
    ports = add_sync_fifo(m, "f", width, depth, wr, din, rd)
    m.output_bus("dout", ports.rd_data)
    m.output("empty", ports.empty)
    m.output("full", ports.full)
    return synthesize(m)


class FifoModel:
    """Reference software FIFO with the same gating semantics."""

    def __init__(self, depth):
        self.depth = depth
        self.items = []

    def step(self, wr, rd, din):
        popped = None
        did_read = rd and self.items
        did_write = wr and len(self.items) < self.depth
        if did_read:
            popped = self.items[0]
        # Hardware pointers update simultaneously on the clock edge.
        if did_read:
            self.items.pop(0)
        if did_write:
            self.items.append(din)
        return popped


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 15)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=25, deadline=None)
def test_fifo_matches_model(ops):
    nl = build_fifo_dut()
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    model = FifoModel(4)
    for wr, rd, din in ops:
        sim.set_input("wr", wr)
        sim.set_input("rd", rd)
        sim.set_word("din", 4, din)
        sim.eval_comb()
        hw_empty = sim.get_bit("empty")
        hw_full = sim.get_bit("full")
        assert hw_empty == int(not model.items)
        assert hw_full == int(len(model.items) == 4)
        if not hw_empty:
            assert sim.get_word("dout", 4) == model.items[0]
        model.step(wr, rd, din)
        sim.tick()


def test_fifo_rejects_bad_depth():
    m = Module("bad")
    with pytest.raises(ValueError, match="power of two"):
        add_sync_fifo(m, "f", 4, 3, Const(1), [Const(0)] * 4, Const(1))


def test_fifo_rejects_width_mismatch():
    m = Module("bad2")
    with pytest.raises(ValueError, match="bits"):
        add_sync_fifo(m, "f", 4, 4, Const(1), [Const(0)] * 3, Const(1))


# ------------------------------------------------------------------- FSM


def test_fsm_transitions_and_priority():
    m = Module("fsmdut")
    go = m.input("go")
    stop = m.input("stop")
    fsm = FSM(m, "ctl", ["IDLE", "RUN", "DONE"])
    fsm.transition("IDLE", go, "RUN")
    fsm.transition("RUN", stop, "DONE")
    fsm.transition("RUN", go, "RUN")
    fsm.transition("DONE", Const(1), "IDLE")
    m.output("in_run", fsm.is_in("RUN"))
    m.output("in_done", fsm.is_in("DONE"))
    fsm.build()
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)

    def observe():
        sim.eval_comb()
        return sim.get_bit("in_run"), sim.get_bit("in_done")

    assert observe() == (0, 0)  # IDLE after reset
    sim.set_input("go", 1)
    sim.step()
    assert observe() == (1, 0)  # RUN
    # priority: stop beats go when both asserted
    sim.set_input("stop", 1)
    sim.step()
    assert observe() == (0, 1)  # DONE
    sim.set_input("stop", 0)
    sim.set_input("go", 0)
    sim.step()
    assert observe() == (0, 0)  # back to IDLE


def test_fsm_errors():
    m = Module("fsmerr")
    with pytest.raises(ValueError):
        FSM(m, "x", ["ONLY"])
    fsm = FSM(m, "y", ["A", "B"])
    with pytest.raises(KeyError):
        fsm.transition("A", Const(1), "NOPE")
    fsm.build()
    with pytest.raises(RuntimeError):
        fsm.build()


# --------------------------------------------------------------- counters


def test_counter_terminal_count():
    nl = make_counter(3)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for i in range(8):
        sim.eval_comb()
        assert sim.get_bit("tc") == int(i == 7)
        sim.tick()
    sim.eval_comb()
    assert sim.get_word("count", 3) == 0  # wrapped


def test_counter_clear_overrides_enable():
    nl = make_counter(4)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for _ in range(5):
        sim.step()
    sim.set_input("clear", 1)
    sim.step()
    sim.eval_comb()
    assert sim.get_word("count", 4) == 0


def test_shift_register_delay():
    nl = make_shift_register(4)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    pattern = [1, 0, 1, 1, 0, 0, 1, 0]
    outs = []
    for bit in pattern:
        sim.set_input("din", bit)
        sim.eval_comb()
        outs.append(sim.get_bit("dout"))
        sim.tick()
    # dout is din delayed by 4 cycles.
    assert outs[4:] == pattern[: len(outs) - 4]


def test_lfsr_cycles_through_states():
    nl = make_lfsr(8)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    seen = set()
    for _ in range(300):
        sim.eval_comb()
        seen.add(sim.get_word("prbs", 8))
        sim.tick()
    # Maximal-length 8-bit LFSR with lockup escape covers all 256 states.
    assert len(seen) == 256


def test_gray_counter_single_bit_changes():
    nl = make_gray_counter(4)
    sim = CompiledSimulator(nl)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    previous = None
    for _ in range(20):
        sim.eval_comb()
        value = sim.get_word("gray", 4)
        if previous is not None:
            assert bin(value ^ previous).count("1") == 1
        previous = value
        sim.tick()


def test_circuit_registry():
    names = available_circuits()
    assert "xgmac" in names and "counter8" in names
    nl = get_circuit("counter8")
    nl.validate()
    with pytest.raises(KeyError):
        get_circuit("nonexistent")


# ------------------------------------------- stand-alone library circuits


def test_make_fifo_stores_and_reads():
    """Write three values through the primary ports, read them back FWFT."""
    nl = get_circuit("fifo4x4")
    nl.validate()
    sim = CompiledSimulator(nl, n_lanes=1)
    sim.reset()
    idx = {name: name for name in nl.inputs}

    def step(wr_en=0, wr=0, rd_en=0):
        sim.set_input("wr_en", wr_en)
        sim.set_input("rd_en", rd_en)
        for b in range(4):
            sim.set_input(f"wr_data[{b}]", (wr >> b) & 1)
        sim.eval_comb()
        out = {name: sim.get_bit(name) for name in nl.outputs}
        sim.tick()
        return out

    sim.set_input("rst_n", 0)
    step()
    sim.set_input("rst_n", 1)
    out = step()
    assert out["empty"] == 1 and out["full"] == 0
    for value in (0x5, 0xA, 0x3):
        step(wr_en=1, wr=value)
    reads = []
    for _ in range(3):
        out = step(rd_en=1)
        reads.append(sum(out[f"rd_data[{b}]"] << b for b in range(4)))
        assert out["rd_val"] == 1
    assert reads == [0x5, 0xA, 0x3]
    assert step()["empty"] == 1


def test_make_crc32_matches_golden_model():
    """The synthesized engine tracks the integer model byte for byte."""
    nl = get_circuit("crc32")
    nl.validate()
    sim = CompiledSimulator(nl, n_lanes=1)
    sim.reset()
    sim.set_input("rst_n", 0)
    sim.eval_comb()
    sim.tick()
    sim.set_input("rst_n", 1)
    data = [0xDE, 0xAD, 0xBE, 0xEF]
    for byte in data:
        sim.set_input("en", 1)
        sim.set_input("clear", 0)
        for b in range(8):
            sim.set_input(f"data[{b}]", (byte >> b) & 1)
        sim.eval_comb()
        sim.tick()
    sim.set_input("en", 0)
    sim.eval_comb()
    expected = crc32_bytes(data)
    got_low = sum(sim.get_bit(f"crc_low[{b}]") << b for b in range(8))
    assert got_low == expected & 0xFF
    assert sim.get_bit("crc_zero") == (1 if expected == 0 else 0)


def test_make_fsm_controller_run_cycle():
    """IDLE -> RUN on start; timer counts; DONE at terminal; ack returns."""
    nl = get_circuit("fsm_ctrl")
    nl.validate()
    sim = CompiledSimulator(nl, n_lanes=1)
    sim.reset()
    sim.set_input("rst_n", 0)
    sim.eval_comb()
    sim.tick()
    sim.set_input("rst_n", 1)

    def step(start=0, stop=0, ack=0):
        sim.set_input("start", start)
        sim.set_input("stop", stop)
        sim.set_input("ack", ack)
        sim.eval_comb()
        out = {name: sim.get_bit(name) for name in nl.outputs}
        sim.tick()
        return out

    assert step()["busy"] == 0
    step(start=1)
    out = step()
    assert out["busy"] == 1 and out["done"] == 0
    for _ in range(20):  # 4-bit timer: terminal count within 16 RUN cycles
        out = step()
        if out["done"]:
            break
    assert out["done"] == 1 and out["busy"] == 0
    assert step(ack=1)["done"] == 1  # Moore output holds until ack registers
    assert step()["busy"] == 0 and step()["done"] == 0


# ----------------------------------------------------- workload registry


def test_burst_workload_is_deterministic():
    from repro.circuits import build_burst_workload

    nl = get_circuit("counter8")
    a = build_burst_workload(nl, n_frames=3, min_len=2, max_len=4, gap=6, seed=11)
    b = build_burst_workload(nl, n_frames=3, min_len=2, max_len=4, gap=6, seed=11)
    assert a.testbench.schedule == b.testbench.schedule
    assert a.active_window == b.active_window
    c = build_burst_workload(nl, n_frames=3, min_len=2, max_len=4, gap=6, seed=12)
    assert c.testbench.schedule != a.testbench.schedule


def test_burst_workload_bias_shapes_stimulus():
    from repro.circuits import build_burst_workload

    nl = get_circuit("counter8")
    clear_idx = nl.inputs.index("clear")
    dense = build_burst_workload(nl, n_frames=6, min_len=4, max_len=6, gap=4, seed=3)
    sparse = build_burst_workload(
        nl, n_frames=6, min_len=4, max_len=6, gap=4, seed=3, bias={"clear": 0.02}
    )
    count = lambda wl: sum((v >> clear_idx) & 1 for v in wl.testbench.schedule)
    assert count(sparse) < count(dense)


def test_workload_registry_resolution():
    from repro.circuits import build_workload_for, default_criterion

    assert default_criterion("xgmac_mini") == "packet"
    assert default_criterion("counter16") == "observed"
    assert default_criterion("fifo8x4") == "any_output"
    assert default_criterion("unknown_circuit") == "any_output"
    nl = get_circuit("shiftreg8")
    wl = build_workload_for("shiftreg8", nl, n_frames=2, min_len=2, max_len=3, gap=4, seed=1)
    assert wl.data_nets == ["dout"]


def test_make_burst_builder_validates_observed_nets():
    from repro.circuits import make_burst_builder

    nl = get_circuit("counter8")
    builder = make_burst_builder(["no_such_output"])
    with pytest.raises(ValueError):
        builder(nl, n_frames=1, min_len=1, max_len=2, gap=2, seed=1)


def test_register_workload_prefix_and_exact():
    from repro.circuits import build_burst_workload, default_criterion, register_workload
    from repro.circuits.workloads import _WORKLOADS_EXACT, _WORKLOADS_PREFIX

    register_workload("zz_test_family", build_burst_workload, criterion="any_output", prefix=True)
    register_workload("zz_test_family_special", build_burst_workload, criterion="observed")
    try:
        assert default_criterion("zz_test_family_widget") == "any_output"
        assert default_criterion("zz_test_family_special") == "observed"
    finally:
        _WORKLOADS_PREFIX.pop("zz_test_family", None)
        _WORKLOADS_EXACT.pop("zz_test_family_special", None)
