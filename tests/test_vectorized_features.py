"""Differential tests: vectorized feature engine vs. the networkx reference.

The contract of the feature-layer refactor is *bit identity*: the batched
mask/bitset extractor (:mod:`repro.features.vectorized`) must reproduce the
per-flip-flop traversal engine exactly, on every circuit in the library.
"""

from dataclasses import asdict

import networkx as nx
import numpy as np
import pytest

from repro.circuits import LIBRARY_CIRCUITS, build_workload_for, get_circuit
from repro.features import CircuitGraph, FeatureExtractor, compute_circuit_stats
from repro.features.dynamic import extract_dynamic
from repro.features.extended import comb_cones
from repro.features.extractor import ALL_FEATURES
from repro.features.structural import extract_structural
from repro.features.synthesis import extract_synthesis
from repro.netlist.levelize import sink_masks, source_masks


STATS_CIRCUITS = LIBRARY_CIRCUITS + ["xgmac_tiny", "mesh_tiny"]


@pytest.mark.parametrize("circuit", STATS_CIRCUITS)
def test_stats_match_networkx_reference(circuit):
    """Every quantity, every flip-flop, every library circuit: exact match."""
    netlist = get_circuit(circuit)
    graph = CircuitGraph(netlist)
    vectorized = asdict(compute_circuit_stats(netlist))
    reference = asdict(graph.stats())
    for key in reference:
        assert vectorized[key] == reference[key], f"{circuit}: {key} diverges"
    # The extended features' mask cones are the traversal's cell sets.
    input_cones, output_cones = comb_cones(netlist)
    for name, in_cone, out_cone in zip(graph.ff_names, input_cones, output_cones):
        assert set(in_cone) == graph.input_cones[name].comb_cells, f"{circuit}: {name}"
        assert set(out_cone) == graph.output_cones[name].comb_cells, f"{circuit}: {name}"


def test_stats_reference_covers_both_scc_kinds():
    """The weighted popcount counts singleton and multi-member components on
    separate paths; some circuit above must exercise both at once."""

    def multi_member_flags(circuit):
        graph = CircuitGraph(get_circuit(circuit)).ff_only_graph()
        return {len(c) > 1 for c in nx.strongly_connected_components(graph)}

    assert any(multi_member_flags(c) == {True, False} for c in STATS_CIRCUITS)


def test_structural_features_identical_between_engines(tiny_mac):
    reference = CircuitGraph(tiny_mac).stats()
    via_graph = extract_structural(tiny_mac, stats=reference)
    via_vector = extract_structural(tiny_mac)
    assert via_graph == via_vector
    assert extract_synthesis(tiny_mac, stats=reference) == extract_synthesis(tiny_mac)


def test_feature_matrices_bit_identical(tiny_mac, tiny_golden):
    """The extractor's matrix equals one assembled from the networkx
    reference's quantities."""
    reference = CircuitGraph(tiny_mac).stats()
    structural = extract_structural(tiny_mac, stats=reference)
    synthesis = extract_synthesis(tiny_mac, stats=reference)
    dynamic = extract_dynamic(tiny_golden)
    rows = [
        {**structural[name], **synthesis[name], **dynamic[name]}
        for name in reference.ff_names
    ]
    expected = np.array(
        [[row[col] for col in ALL_FEATURES] for row in rows], dtype=np.float64
    )
    assert np.array_equal(FeatureExtractor(tiny_mac).matrix(tiny_golden), expected)


def test_sink_masks_mirror_source_masks(counter_netlist):
    """Reachability symmetry: i in sources(n) iff n in fan-in of some FF i."""
    net_ff_mask, _ = source_masks(counter_netlist)
    ff_sink, out_mask = sink_masks(counter_netlist)
    flip_flops = counter_netlist.flip_flops()
    clock_nets = set(counter_netlist.clocks)
    # Forward: FF i reaches FF j's data cone  <=>  reverse: j in sinks of Qi.
    for j, ff in enumerate(flip_flops):
        sources = 0
        for net in ff.data_input_nets():
            if net not in clock_nets:
                sources |= net_ff_mask.get(net, 0)
        for i, src in enumerate(flip_flops):
            forward = bool((sources >> i) & 1)
            reverse = bool((ff_sink.get(src.output_net(), 0) >> j) & 1)
            assert forward == reverse
    # Every primary output is in its own net's output mask.
    for idx, net in enumerate(counter_netlist.outputs):
        assert (out_mask[net] >> idx) & 1


def test_sink_masks_shift_register():
    """Hand-checkable chain: only downstream data pins are in the sink set."""
    from repro.synth import Module, synthesize

    m = Module("shift3")
    din = m.input("din")
    s = m.reg_bus("s", 3)
    m.next(s[0], din)
    m.next(s[1], s[0])
    m.next(s[2], s[1])
    m.output("dout", s[2])
    nl = synthesize(m)
    ff_sink, out_mask = sink_masks(nl)
    ff_index = {ff.name: i for i, ff in enumerate(nl.flip_flops())}
    q0 = nl.cells["ff_s[0]"].output_net()
    # Q of stage 0 feeds only stage 1's D (one clock-boundary hop).
    assert ff_sink[q0] == 1 << ff_index["ff_s[1]"]
    assert out_mask[q0] == 0
    q2 = nl.cells["ff_s[2]"].output_net()
    assert out_mask[q2] == 1 << nl.outputs.index("dout")


@pytest.mark.parametrize("circuit", ["counter8", "fifo4x4", "crc32", "fsm_ctrl"])
def test_burst_workload_extraction_end_to_end(circuit):
    """Vectorized extraction works on the burst workloads' golden traces."""
    netlist = get_circuit(circuit)
    workload = build_workload_for(
        circuit, netlist, n_frames=2, min_len=2, max_len=3, gap=6, seed=9
    )
    golden = workload.testbench.run_golden()
    matrix = FeatureExtractor(netlist).matrix(golden)
    assert matrix.shape[0] == len(netlist.flip_flops())
    assert np.all(np.isfinite(matrix))
