"""Unit tests for the netlist data model and validation."""

import pytest

from repro.netlist import Netlist, NetlistError


def build_simple():
    nl = Netlist("simple")
    nl.add_input("clk", is_clock=True)
    nl.add_input("a")
    nl.add_input("b")
    nl.add_cell("u1", "AND2", {"A": "a", "B": "b", "Z": "w1"})
    nl.add_cell("ff1", "DFF", {"D": "w1", "CK": "clk", "Q": "q1"})
    nl.add_cell("u2", "INV", {"A": "q1", "Z": "out"})
    nl.add_output("out")
    return nl


def test_basic_construction():
    nl = build_simple()
    nl.validate()
    assert len(nl) == 3
    assert nl.flip_flop_names() == ["ff1"]
    assert nl.nets["w1"].driver.cell == "u1"
    assert nl.nets["a"].is_input
    assert nl.nets["out"].is_output
    assert "ff1" in nl


def test_stats():
    stats = build_simple().stats()
    assert stats.n_cells == 3
    assert stats.n_sequential == 1
    assert stats.n_combinational == 2
    assert stats.n_inputs == 3
    assert stats.n_outputs == 1
    assert stats.max_logic_depth == 1
    assert stats.total_area > 0


def test_double_driver_rejected():
    nl = build_simple()
    with pytest.raises(NetlistError, match="two drivers"):
        nl.add_cell("u3", "INV", {"A": "a", "Z": "w1"})


def test_driving_primary_input_rejected():
    nl = build_simple()
    with pytest.raises(NetlistError, match="primary input"):
        nl.add_cell("u3", "INV", {"A": "q1", "Z": "a"})


def test_duplicate_instance_rejected():
    nl = build_simple()
    with pytest.raises(NetlistError, match="duplicate"):
        nl.add_cell("u1", "INV", {"A": "a", "Z": "w9"})


def test_unknown_pin_rejected():
    nl = build_simple()
    with pytest.raises(NetlistError, match="unknown pin"):
        nl.add_cell("u3", "INV", {"IN": "a", "Z": "w9"})


def test_unconnected_pin_fails_validation():
    nl = Netlist("bad")
    nl.add_input("clk", is_clock=True)
    nl.add_cell("ff", "DFF", {"CK": "clk", "Q": "q", "D": "q"})
    nl.add_cell("u", "AND2", {"A": "q", "Z": "o"})  # B missing
    nl.add_output("o")
    with pytest.raises(NetlistError, match="unconnected"):
        nl.validate()


def test_combinational_cycle_detected():
    nl = Netlist("loop")
    nl.add_input("a")
    nl.add_cell("u1", "AND2", {"A": "a", "B": "w2", "Z": "w1"})
    nl.add_cell("u2", "INV", {"A": "w1", "Z": "w2"})
    nl.add_output("w2")
    with pytest.raises(NetlistError, match="cycle"):
        nl.topological_comb_order()


def test_topological_order_respects_dependencies():
    nl = build_simple()
    order = nl.topological_comb_order()
    assert set(order) == {"u1", "u2"}


def test_logic_depth():
    nl = Netlist("depth")
    nl.add_input("a")
    nl.add_cell("u1", "INV", {"A": "a", "Z": "w1"})
    nl.add_cell("u2", "INV", {"A": "w1", "Z": "w2"})
    nl.add_cell("u3", "INV", {"A": "w2", "Z": "w3"})
    nl.add_output("w3")
    depth = nl.logic_depth()
    assert depth["w3"] == 3
    assert depth["w1"] == 1


def test_undriven_output_rejected():
    nl = Netlist("undrv")
    nl.add_input("clk", is_clock=True)
    nl.add_output("floating")
    with pytest.raises(NetlistError, match="no driver|undriven"):
        nl.validate()


def test_drive_strength_from_full_name():
    nl = Netlist("drv")
    nl.add_input("a")
    cell = nl.add_cell("u1", "INV_X4", {"A": "a", "Z": "w"})
    assert cell.drive == 4
    assert cell.type_name == "INV_X4"


def test_sink_without_driver_fails_validation():
    nl = Netlist("dangling")
    nl.add_input("clk", is_clock=True)
    nl.add_cell("ff", "DFF", {"D": "nowhere", "CK": "clk", "Q": "q"})
    with pytest.raises(NetlistError, match="no driver"):
        nl.validate()


def _spread_by_backward_walk(netlist):
    """Reference one-tick adjacency: walk back from each flip-flop's D/RN
    pins through combinational cells and mark every flip-flop Q reached."""
    flip_flops = netlist.flip_flops()
    index = {ff.name: i for i, ff in enumerate(flip_flops)}
    masks = [0] * len(flip_flops)
    for j, ff in enumerate(flip_flops):
        stack = [ff.connections[pin] for pin in ("D", "RN") if pin in ff.connections]
        seen = set(stack)
        while stack:
            driver = netlist.nets[stack.pop()].driver
            if driver is None:
                continue  # primary input
            cell = netlist.cells[driver.cell]
            if cell.is_sequential:
                masks[index[cell.name]] |= 1 << j
                continue
            for net in cell.input_nets():
                if net not in seen:
                    seen.add(net)
                    stack.append(net)
    return masks


def test_ff_spread_masks_match_backward_walk():
    from repro.circuits.library import LIBRARY_CIRCUITS, get_circuit
    from repro.netlist.levelize import ff_spread_masks

    for name in LIBRARY_CIRCUITS + ["mesh_tiny"]:
        netlist = get_circuit(name)
        spread = ff_spread_masks(netlist)
        assert len(spread) == len(netlist.flip_flops()), name
        assert any(spread), name
        assert spread == _spread_by_backward_walk(netlist), name
