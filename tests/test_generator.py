"""Generated large-circuit tests: sizes, registration, determinism, behavior.

The generated composites are synthesized like any handwritten circuit, so
most correctness comes free from the synthesis/simulator test suites; what
is asserted here is the generator's own contract — advertised flip-flop
counts, registry placement (in ``CIRCUIT_BUILDERS``, out of
``LIBRARY_CIRCUITS``), build determinism, and that the mesh and pipeline
actually compute (golden traces respond to stimulus instead of sitting at
reset values).
"""

import pytest

from repro.circuits.generator import (
    GENERATED_CIRCUITS,
    GENERATED_FF_COUNTS,
    make_mesh_mac,
    make_pipeline,
    mesh_ff_count,
    pipeline_ff_count,
)
from repro.circuits.library import CIRCUIT_BUILDERS, LIBRARY_CIRCUITS, get_circuit
from repro.circuits.workloads import build_workload_for, default_criterion


def test_presets_registered_in_builders_but_not_library_sweep():
    for name in GENERATED_CIRCUITS:
        assert name in CIRCUIT_BUILDERS
        assert name not in LIBRARY_CIRCUITS, (
            "generated presets must stay out of the transfer-experiment sweep"
        )


def test_ff_count_helpers_match_built_netlists():
    assert mesh_ff_count(2, 4, 8) == 128
    assert pipeline_ff_count(128, 16) == 2048
    netlist = make_mesh_mac(2, 4, 8)
    assert len(netlist.flip_flops()) == mesh_ff_count(2, 4, 8)
    netlist = make_pipeline(5, 8)
    assert len(netlist.flip_flops()) == pipeline_ff_count(5, 8)


def test_advertised_preset_sizes_are_accurate_for_small_presets():
    """Synthesize the sub-3k presets and check the advertised counts; the
    10k/100k presets use the same helpers with different parameters."""
    for name in ("mesh_tiny", "mesh_2k", "pipe_2k"):
        netlist = get_circuit(name)
        assert len(netlist.flip_flops()) == GENERATED_FF_COUNTS[name], name
    assert GENERATED_FF_COUNTS["mesh_10k"] == 10240
    assert GENERATED_FF_COUNTS["mesh_100k"] == 100000
    assert GENERATED_FF_COUNTS["pipe_10k"] == 10240


def test_generation_is_deterministic():
    a = make_mesh_mac(2, 3, 4)
    b = make_mesh_mac(2, 3, 4)
    assert list(a.cells) == list(b.cells)
    assert [ff.name for ff in a.flip_flops()] == [ff.name for ff in b.flip_flops()]
    a = make_pipeline(6, 5)
    b = make_pipeline(6, 5)
    assert list(a.cells) == list(b.cells)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        make_mesh_mac(0, 4)
    with pytest.raises(ValueError):
        make_pipeline(1, 2)  # chi step needs width >= 3


def test_presets_have_registered_workloads():
    """The mesh/pipe prefixes register burst workloads with the strict
    any-output criterion (the reduced parities are the only outputs)."""
    for name in GENERATED_CIRCUITS:
        assert default_criterion(name) == "any_output", name


def test_generated_circuits_enrolled_in_differential_verifier():
    """`repro.experiments verify` replays injector and scheduler verdicts on
    a small mesh against brute force; a tiny sample runs here so the check
    itself stays under test."""
    from repro.verify import run_generated_check

    divergences, checked = run_generated_check(
        n_injection_cycles=1, n_ffs_sample=4
    )
    assert divergences == []
    assert checked == 8, "4 brute-force replays + 4 scheduler comparisons"


def mesh_state_activity(circuit: str) -> int:
    """Distinct flip-flop state words across the golden trace."""
    netlist = get_circuit(circuit)
    workload = build_workload_for(circuit, netlist, n_frames=2, gap=8)
    golden = workload.testbench.run_golden()
    return len(set(golden.ff_state))


def test_mesh_and_pipeline_golden_traces_compute():
    """The burst workload must drive real state evolution — a generator bug
    that wires `en` dead would leave one constant state word."""
    assert mesh_state_activity("mesh_tiny") > 4
    netlist = make_pipeline(6, 4)
    workload = build_workload_for("pipe_2k", netlist, n_frames=2, gap=8)
    golden = workload.testbench.run_golden()
    assert len(set(golden.ff_state)) > 4
    assert len(set(golden.outputs)) > 1, "outputs must respond to stimulus"
