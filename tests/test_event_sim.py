"""Event-driven simulator tests: X-propagation, clocking, cross-check."""

import itertools

import pytest

from repro.netlist import DEFAULT_LIBRARY, Netlist
from repro.sim import (
    ClockGenerator,
    CompiledSimulator,
    EventDrivenSimulator,
    ONE,
    X,
    ZERO,
    eval3,
)


def test_eval3_exact_x_propagation():
    and2 = DEFAULT_LIBRARY["AND2"]
    assert eval3(and2, [ZERO, X]) == ZERO  # controlling value masks X
    assert eval3(and2, [ONE, X]) == X
    or2 = DEFAULT_LIBRARY["OR2"]
    assert eval3(or2, [ONE, X]) == ONE
    assert eval3(or2, [ZERO, X]) == X
    xor2 = DEFAULT_LIBRARY["XOR2"]
    assert eval3(xor2, [ZERO, X]) == X
    mux2 = DEFAULT_LIBRARY["MUX2"]
    # Same data on both legs masks an unknown select.
    assert eval3(mux2, [ONE, ONE, X]) == ONE
    assert eval3(mux2, [ZERO, ONE, X]) == X


def test_eval3_matches_binary_when_known():
    for name in ("AND2", "NAND3", "OR4", "XNOR2", "AOI21", "OAI22", "MUX2"):
        ctype = DEFAULT_LIBRARY[name]
        for bits in itertools.product((0, 1), repeat=len(ctype.inputs)):
            assert eval3(ctype, list(bits)) == ctype.evaluate(list(bits), mask=1)


def test_eval3_rejects_bad_values():
    with pytest.raises(ValueError):
        eval3(DEFAULT_LIBRARY["INV"], [7])


def build_dff_chain():
    nl = Netlist("chain")
    nl.add_input("clk", is_clock=True)
    nl.add_input("d")
    nl.add_cell("ff0", "DFF", {"D": "d", "CK": "clk", "Q": "q0"})
    nl.add_cell("ff1", "DFF", {"D": "q0", "CK": "clk", "Q": "q1"})
    nl.add_output("q1")
    return nl


def test_unknown_state_before_first_clock():
    nl = build_dff_chain()
    sim = EventDrivenSimulator(nl)
    assert sim.get("q1") == X


def test_values_propagate_through_chain():
    nl = build_dff_chain()
    sim = EventDrivenSimulator(nl)
    clock = ClockGenerator("clk", period=10)
    samples = []

    def stimulus(cycle, s):
        return {"d": ONE if cycle >= 1 else ZERO}

    def sample(cycle, s):
        samples.append(s.get("q1"))

    sim.run_clocked(clock, 6, stimulus=stimulus, sample=sample)
    # q1 is X until two edges have passed, then follows d two cycles late.
    assert samples[0] == X
    assert samples[-1] == ONE


def test_event_sim_matches_compiled_on_counter(counter_netlist):
    """Cross-check: both engines agree cycle by cycle after reset."""
    event_sim = EventDrivenSimulator(counter_netlist)
    clock = ClockGenerator("clk", period=10)
    event_values = []

    def stimulus(cycle, s):
        if cycle == 0:
            return {"rst_n": ZERO, "en": ZERO}
        if cycle == 2:
            return {"rst_n": ONE, "en": ONE}
        return {}

    def sample(cycle, s):
        event_values.append(s.get_word("count", 4))

    event_sim.run_clocked(clock, 12, stimulus=stimulus, sample=sample)

    compiled = CompiledSimulator(counter_netlist)
    compiled.reset()
    compiled_values = []
    for cycle in range(12):
        compiled.set_input("rst_n", 0 if cycle < 3 else 1)
        compiled.set_input("en", 0 if cycle < 3 else 1)
        compiled.eval_comb()
        compiled_values.append(compiled.get_word("count", 4))
        compiled.tick()
    # After the reset phase (where the event sim still holds X), they agree.
    for ev, cv in zip(event_values[4:], compiled_values[4:]):
        assert ev == cv


def test_probe_callbacks_fire():
    nl = build_dff_chain()
    sim = EventDrivenSimulator(nl)
    changes = []
    sim.add_probe("q0", lambda t, net, v: changes.append((t, v)))
    sim.set_input("d", ONE)
    clock = ClockGenerator("clk", period=10)
    sim.run_clocked(clock, 3)
    assert changes, "probe should observe at least the X->1 transition"
    assert changes[-1][1] == ONE


def test_scheduling_in_past_rejected():
    nl = build_dff_chain()
    sim = EventDrivenSimulator(nl)
    sim.schedule(50, "d", ONE)
    sim.run_until(60)
    with pytest.raises(ValueError):
        sim.schedule(10, "d", ZERO)


def test_set_input_requires_primary_input():
    nl = build_dff_chain()
    sim = EventDrivenSimulator(nl)
    with pytest.raises(ValueError):
        sim.set_input("q0", ONE)


def test_clock_generator_edges():
    clock = ClockGenerator("clk", period=10, start=5)
    edges = clock.edges_until(35)
    assert edges[0] == (5, ONE)
    assert edges[1] == (10, ZERO)
    assert all(b - a == 5 for (a, _), (b, _) in zip(edges, edges[1:]))


# ------------------------------------------- X-propagation vs. the oracle


def build_mixed_reset_design():
    """Two state bits: one resettable (DFFR), one free-running (DFF).

    The DFF is fed from the DFFR's cone, so its X clears only after real
    data has flowed — the classic "startup before reset" shape.
    """
    nl = Netlist("mixed_reset")
    nl.add_input("clk", is_clock=True)
    nl.add_input("rst_n")
    nl.add_input("d")
    nl.add_cell("g_and", "AND2", {"A": "d", "B": "qr", "Z": "n1"})
    nl.add_cell("ffr", "DFFR", {"D": "d", "RN": "rst_n", "CK": "clk", "Q": "qr"})
    nl.add_cell("ffp", "DFF", {"D": "n1", "CK": "clk", "Q": "qp"})
    nl.add_output("qr")
    nl.add_output("qp")
    nl.validate()
    return nl


def drive_locked_cycles(netlist, stimulus_bits, observe):
    """Run event sim and oracle in lockstep; call observe(cycle, ev, oracle).

    ``stimulus_bits[cycle]`` maps input name -> 0/1.  The clock is driven as
    an explicit waveform for the event engine and implied (tick) for the
    oracle, with the same pre-edge observation point for both.
    """
    from repro.verify import OracleSimulator

    event = EventDrivenSimulator(netlist)
    oracle = OracleSimulator(netlist)
    oracle.reset()
    period, half = 20, 10
    for cycle, assignments in enumerate(stimulus_bits):
        t_base = cycle * period
        event.schedule(t_base, "clk", ZERO)
        for name, bit in assignments.items():
            event.schedule(t_base, name, ONE if bit else ZERO)
            oracle.set_input(name, bit)
        event.run_until(t_base + half - 1)
        oracle.eval_comb()
        observe(cycle, event, oracle)
        event.schedule(t_base + half, "clk", ONE)
        event.run_until(t_base + period - 1)
        oracle.tick()


def test_x_before_reset_then_agreement_with_oracle():
    """All nets are X at startup; once each resolves it matches the oracle
    and never reverts to X."""
    netlist = build_mixed_reset_design()
    stimulus = [{"rst_n": 0, "d": 1}] * 2 + [{"rst_n": 1, "d": 1}] * 6
    resolved_at = {}
    mismatches = []

    def observe(cycle, event, oracle):
        for net in ("qr", "qp", "n1"):
            value = event.get(net)
            if value == X:
                assert net not in resolved_at, f"{net} reverted to X"
                continue
            resolved_at.setdefault(net, cycle)
            if value != oracle.get(net):
                mismatches.append((cycle, net, value, oracle.get(net)))

    drive_locked_cycles(netlist, stimulus, observe)
    assert not mismatches, mismatches
    # The resettable bit resolves first (reset forces it), the plain DFF
    # only after valid data propagates through the AND cone.
    assert resolved_at["qr"] < resolved_at["qp"]
    assert set(resolved_at) == {"qr", "qp", "n1"}


def test_plain_dff_stays_x_without_reset_path():
    """A free-running DFF fed only by unknown state never resolves, while
    the two-valued simulators define it as 0 — exactly the gap the verify
    harness must skip rather than flag."""
    nl = Netlist("noreset")
    nl.add_input("clk", is_clock=True)
    nl.add_cell("inv", "INV", {"A": "q", "Z": "nq"})
    nl.add_cell("ff", "DFF", {"D": "nq", "CK": "clk", "Q": "q"})
    nl.add_output("q")
    nl.validate()

    stayed_x = []

    def observe(cycle, event, oracle):
        stayed_x.append(event.get("q") == X)
        # The oracle, by contrast, oscillates deterministically from 0.
        assert oracle.get("q") in (0, 1)

    drive_locked_cycles(nl, [{}] * 5, observe)
    assert all(stayed_x)


def test_rn_x_gates_dffr_exactly():
    """DFFR with unknown RN: D=0 still latches 0 (0 & anything), D=1 gives X."""
    nl = Netlist("rnx")
    nl.add_input("clk", is_clock=True)
    nl.add_input("rst_n")
    nl.add_input("d")
    nl.add_cell("ff", "DFFR", {"D": "d", "RN": "rst_n", "CK": "clk", "Q": "q"})
    nl.add_output("q")
    nl.validate()

    sim = EventDrivenSimulator(nl)
    # Leave rst_n at X, drive D=0, clock one edge: Q must resolve to 0.
    sim.schedule(0, "clk", ZERO)
    sim.schedule(0, "d", ZERO)
    sim.run_until(4)
    sim.schedule(5, "clk", ONE)
    sim.run_until(9)
    assert sim.get("q") == ZERO
    # Now D=1 with RN still X: the latched value is unknown.
    sim.schedule(10, "clk", ZERO)
    sim.schedule(10, "d", ONE)
    sim.run_until(14)
    sim.schedule(15, "clk", ONE)
    sim.run_until(19)
    assert sim.get("q") == X


def test_fuzzed_event_startup_agrees_with_oracle():
    """Fuzzed circuits with a mix of DFF/DFFR: the event engine's resolved
    nets always match the oracle through and after the reset phase."""
    from repro.verify import FuzzSpec, generate_netlist, run_event_differential

    for seed in range(4):
        spec = FuzzSpec(seed=seed, n_gates=20, n_ffs=6, p_dffr=0.5, n_cycles=12)
        netlist = generate_netlist(spec)
        divergences, comparisons = run_event_differential(netlist, spec)
        assert comparisons > 0
        assert not divergences, [str(d) for d in divergences]
