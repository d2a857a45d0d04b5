"""RTL module + synthesis (tech-mapping) tests.

The key property: a synthesized netlist, simulated cycle by cycle, behaves
exactly like the RTL module's next-state semantics interpreted directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import NetlistError
from repro.sim import CompiledSimulator
from repro.synth import Module, Sig, synthesize, wordlib
from repro.synth.expr import And, Const, Xor
from repro.synth.synthesis import DriveRules


def test_simple_counter_behaviour(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for i in range(20):
        sim.eval_comb()
        assert sim.get_word("count", 4) == i % 16
        sim.tick()


def test_enable_holds_value(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for _ in range(5):
        sim.step()
    sim.set_input("en", 0)
    for _ in range(4):
        sim.eval_comb()
        assert sim.get_word("count", 4) == 5
        sim.tick()


def test_synchronous_reset(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for _ in range(5):
        sim.step()
    sim.set_input("rst_n", 0)
    sim.step()
    sim.eval_comb()
    assert sim.get_word("count", 4) == 0


def test_non_resettable_regs_use_dff():
    m = Module("mixed")
    d = m.input("d")
    r1 = m.reg("r1", resettable=True)
    r2 = m.reg("r2", resettable=False)
    m.next(r1, d)
    m.next(r2, d)
    m.output("o1", r1)
    m.output("o2", r2)
    nl = synthesize(m)
    assert nl.cells["ff_r1"].ctype.name == "DFFR"
    assert nl.cells["ff_r2"].ctype.name == "DFF"


def test_default_next_is_hold():
    m = Module("hold")
    m.reg("r")
    m.output("o", Sig("r"))
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    sim.reset(ff_value=1)
    sim.set_input("rst_n", 1)
    for _ in range(3):
        sim.eval_comb()
        assert sim.get_bit("o") == 1
        sim.tick()


def test_register_double_assign_rejected():
    m = Module("dup")
    r = m.reg("r")
    m.next(r, Const(1))
    with pytest.raises(ValueError, match="assigned twice"):
        m.next(r, Const(0))


def test_unknown_signal_rejected():
    m = Module("unknown")
    m.output("o", Sig("ghost"))
    with pytest.raises(NetlistError, match="unknown signal"):
        synthesize(m)


def test_wire_combinational_loop_rejected():
    m = Module("loop")
    m.assign("w1", Sig("w2"))
    m.assign("w2", Sig("w1"))
    m.output("o", Sig("w1"))
    with pytest.raises(NetlistError, match="loop"):
        synthesize(m)


def test_name_collision_rejected():
    m = Module("collide")
    m.input("x")
    with pytest.raises(ValueError, match="already in use"):
        m.reg("x")


def test_gate_sharing():
    """Structurally identical subexpressions map to one gate."""
    m = Module("share")
    a, b = m.input("a"), m.input("b")
    m.output("o1", (a & b) | a)
    m.output("o2", (a & b) | b)
    nl = synthesize(m)
    and_gates = [c for c in nl.iter_cells() if c.ctype.name == "AND2"]
    assert len(and_gates) == 1


def test_constants_map_to_tie_cells():
    m = Module("ties")
    a = m.input("a")
    r = m.reg("r")
    m.next(r, Const(0))
    m.output("o", a)
    m.output("zero", Sig("r"))
    nl = synthesize(m)
    tie_cells = [c for c in nl.iter_cells() if c.is_tie]
    assert len(tie_cells) == 1


def test_drive_strength_assignment():
    rules = DriveRules(x2_fanout=2, x4_fanout=4)
    m = Module("fanout")
    a = m.input("a")
    inv = m.assign("n", ~a)
    for i in range(6):
        m.output(f"o{i}", inv & Sig("a"))
    nl = synthesize(m, drive_rules=rules)
    inv_cell = next(c for c in nl.iter_cells() if c.ctype.name == "INV")
    # The inverter drives one AND gate (shared) -> low fanout; the AND
    # drives six output buffers -> X4.
    and_cell = next(c for c in nl.iter_cells() if c.ctype.name == "AND2")
    assert and_cell.drive == 4
    assert inv_cell.drive == 1


def test_nary_reduction_trees():
    """Wide AND/XOR decompose into library-arity gates, still correct."""
    width = 11
    m = Module("wide")
    bits = m.input_bus("d", width)
    m.output("all_and", And.of(*bits))
    m.output("parity", Xor.of(*bits))
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    for value in (0, (1 << width) - 1, 0b10110010101, 0b00000000001):
        sim.resize_lanes(1)
        for i in range(width):
            sim.set_input(f"d[{i}]", (value >> i) & 1)
        sim.eval_comb()
        assert sim.get_bit("all_and") == int(value == (1 << width) - 1)
        assert sim.get_bit("parity") == bin(value).count("1") % 2


@given(data=st.integers(0, 255), sel=st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_synthesized_mux_matches_interpreter(data, sel):
    m = Module("muxcheck")
    a = m.input_bus("a", 4)
    b = m.input_bus("b", 4)
    s = m.input("s")
    m.output_bus("y", wordlib.mux_word(s, a, b))
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    av, bv = data & 0xF, (data >> 4) & 0xF
    sim.set_word("a", 4, av)
    sim.set_word("b", 4, bv)
    sim.set_input("s", sel)
    sim.eval_comb()
    assert sim.get_word("y", 4) == (av if sel else bv)


def test_module_finalize_idempotent():
    m = Module("fin")
    m.reg("r")
    m.finalize()
    m.finalize()
    assert m.regs["r"].next_expr is not None


def test_netlist_validates_after_synthesis(tiny_mac):
    tiny_mac.validate()
    stats = tiny_mac.stats()
    assert stats.n_sequential == len(tiny_mac.flip_flops())
    assert stats.n_cells == stats.n_combinational + stats.n_sequential + stats.n_tie
