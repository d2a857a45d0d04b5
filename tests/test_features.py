"""Feature-extraction tests: graph analysis, all three groups, dataset."""

import numpy as np
import pytest

from repro.features import (
    ALL_FEATURES,
    Dataset,
    FEATURE_GROUPS,
    CircuitGraph,
    FeatureExtractor,
    bus_membership,
    extract_dynamic,
    extract_structural,
    extract_synthesis,
)
from repro.synth import Module, Sig, synthesize


def test_bus_membership_from_names():
    names = ["ff_a[0]", "ff_a[1]", "ff_a[2]", "ff_single", "ff_lone[0]"]
    info = bus_membership(names)
    assert info["ff_a[1]"] == (1, 1, 3)
    assert info["ff_single"] == (0, -1, 0)
    # A one-bit "bus" is treated as scalar.
    assert info["ff_lone[0]"] == (0, -1, 0)


@pytest.fixture(scope="module")
def shift_graph():
    """3-stage shift register: exact hand-checkable connectivity."""
    m = Module("shift3")
    din = m.input("din")
    s = m.reg_bus("s", 3)
    m.next(s[0], din)
    m.next(s[1], s[0])
    m.next(s[2], s[1])
    m.output("dout", s[2])
    nl = synthesize(m)
    return nl, CircuitGraph(nl)


def test_cone_tracing_shift_register(shift_graph):
    nl, graph = shift_graph
    cone0 = graph.input_cones["ff_s[0]"]
    assert cone0.primary_inputs == {"din", "rst_n"}
    assert cone0.ff_sources == set()
    cone1 = graph.input_cones["ff_s[1]"]
    assert cone1.ff_sources == {"ff_s[0]"}
    out2 = graph.output_cones["ff_s[2]"]
    # The output buffer is combinational, so the cone reaches the PO net.
    assert out2.primary_outputs == {"dout"}
    assert out2.comb_cells == {"obuf_dout"}


def test_transitive_counts_shift_register(shift_graph):
    _nl, graph = shift_graph
    total_from, total_to = graph.transitive_counts()
    assert total_from["ff_s[0]"] == 0
    assert total_from["ff_s[2]"] == 2
    assert total_to["ff_s[0]"] == 2
    assert total_to["ff_s[2]"] == 0


def test_stage_distances_shift_register(shift_graph):
    _nl, graph = shift_graph
    pi = graph.pi_stage_distances()
    po = graph.po_stage_distances()
    # din reaches s0 in 1 stage, s2 in 3; rst_n reaches each directly.
    assert 1 in pi["ff_s[0]"]
    assert max(pi["ff_s[2]"]) == 3
    assert min(po["ff_s[2]"]) == 1
    assert min(po["ff_s[0]"]) == 3


def test_no_feedback_in_shift_register(shift_graph):
    nl, _graph = shift_graph
    feats = extract_structural(nl)
    for name in ("ff_s[0]", "ff_s[1]", "ff_s[2]"):
        assert feats[name]["has_feedback_loop"] == 0.0
        assert feats[name]["feedback_loop_depth"] == -1.0


def test_counter_has_depth1_feedback(counter_netlist):
    feats = extract_structural(counter_netlist)
    for name in counter_netlist.flip_flop_names():
        assert feats[name]["has_feedback_loop"] == 1.0
        assert feats[name]["feedback_loop_depth"] == 1.0


def test_multi_stage_feedback_depth():
    """Two registers in a ring: feedback depth 2 for each."""
    m = Module("ring")
    a = m.reg("a")
    b = m.reg("b")
    m.next(a, ~b)
    m.next(b, Sig("a"))
    m.output("o", Sig("b"))
    nl = synthesize(m)
    feats = extract_structural(nl)
    assert feats["ff_a"]["feedback_loop_depth"] == 2.0
    assert feats["ff_b"]["feedback_loop_depth"] == 2.0


def test_constant_driver_feature():
    """A register whose D is hard-tied to a constant sees the TIE cell.

    (Constants inside gated expressions are folded away by the expression
    optimizer, as a synthesis tool would; only hard ties survive.)
    """
    from repro.synth.expr import Const

    m = Module("constload")
    r = m.reg_bus("r", 2)
    m.next(r[0], Const(0))
    m.next(r[1], Sig("r[0]"))
    m.output_bus("o", [Sig("r[0]"), Sig("r[1]")])
    nl = synthesize(m)
    feats = extract_structural(nl)
    assert feats["ff_r[0]"]["conn_to_const_drivers"] == 1.0
    assert feats["ff_r[1]"]["conn_to_const_drivers"] == 0.0


def test_structural_features_complete(tiny_mac):
    feats = extract_structural(tiny_mac)
    assert set(feats) == set(tiny_mac.flip_flop_names())
    from repro.features.structural import STRUCTURAL_FEATURES

    for row in feats.values():
        assert set(row) == set(STRUCTURAL_FEATURES)


def test_synthesis_features(tiny_mac):
    feats = extract_synthesis(tiny_mac)
    for name, row in feats.items():
        assert row["drive_strength"] in (1.0, 2.0, 4.0)
        assert row["comb_fan_in"] >= 0
        assert row["comb_path_depth"] >= 0


def test_dynamic_features(tiny_golden):
    feats = extract_dynamic(tiny_golden)
    for row in feats.values():
        assert abs(row["at_zero"] + row["at_one"] - 1.0) < 1e-12
        assert row["state_changes"] >= 0


def test_extractor_merges_all_groups(tiny_mac, tiny_golden):
    extractor = FeatureExtractor(tiny_mac)
    merged = extractor.extract(tiny_golden)
    row = next(iter(merged.values()))
    assert set(row) == set(ALL_FEATURES)
    matrix = extractor.matrix(tiny_golden)
    assert matrix.shape == (len(tiny_mac.flip_flops()), len(ALL_FEATURES))
    assert np.all(np.isfinite(matrix))


def test_dataset_build_and_selection(tiny_dataset):
    ds = tiny_dataset
    assert ds.n_features == len(ALL_FEATURES)
    assert set(ds.groups) == set(FEATURE_GROUPS)
    assert np.all((ds.y >= 0) & (ds.y <= 1))
    structural_only = ds.select_groups(["structural"])
    assert structural_only.n_features == len(FEATURE_GROUPS["structural"])
    two = ds.select_features(["at_zero", "at_one"])
    assert two.feature_names == ["at_zero", "at_one"]
    sub = ds.subset([0, 1, 2])
    assert sub.n_samples == 3
    assert sub.ff_names == ds.ff_names[:3]


def test_dataset_json_round_trip(tiny_dataset):
    restored = Dataset.from_json(tiny_dataset.to_json())
    assert restored.ff_names == tiny_dataset.ff_names
    assert np.allclose(restored.X, tiny_dataset.X)
    assert np.allclose(restored.y, tiny_dataset.y)
    assert restored.groups == tiny_dataset.groups


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(ff_names=["a"], feature_names=["f1", "f2"], X=np.zeros((1, 1)), y=np.zeros(1))
    with pytest.raises(ValueError):
        Dataset(ff_names=["a"], feature_names=["f"], X=np.zeros((1, 1)), y=np.zeros(2))


def test_column_accessor(tiny_dataset):
    col = tiny_dataset.column("drive_strength")
    assert col.shape == (tiny_dataset.n_samples,)
    assert set(np.unique(col)).issubset({1.0, 2.0, 4.0})


def test_fifo_memory_bits_form_long_buses(tiny_dataset):
    mem_rows = [i for i, n in enumerate(tiny_dataset.ff_names) if "txf_mem" in n]
    assert mem_rows
    bus_len_col = tiny_dataset.feature_names.index("bus_length")
    assert all(tiny_dataset.X[i, bus_len_col] == 10.0 for i in mem_rows)
