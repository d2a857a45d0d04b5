"""Tests for the extension capabilities: SET injection, error latency,
net-level activity, and the extended feature set."""

import hashlib
import json

import numpy as np
import pytest

from repro.faultinjection import PacketInterfaceCriterion
from repro.faultinjection.injector import FaultInjector
from repro.features.extended import EXTENDED_FEATURES, extend_dataset, extract_extended
from repro.sim import collect_net_activity
from repro.experiments import run_extended_features


@pytest.fixture(scope="module")
def tiny_injector(tiny_mac, tiny_workload, tiny_golden):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    return FaultInjector(tiny_mac, tiny_workload.testbench, tiny_golden, criterion)


# ---------------------------------------------------------- error latency


def test_failed_lanes_report_latency(tiny_injector, tiny_workload):
    first, _ = tiny_workload.active_window
    targets = ["ff_tx_state[0]", "ff_txf_rd_ptr[0]", "ff_stat_tx_frames[0]"]
    indices = [tiny_injector.ff_index(n) for n in targets]
    outcome = tiny_injector.run_batch(first + 4, indices)
    assert outcome.n_lanes == len(indices)
    for lane in outcome.failed_lanes():
        assert lane in outcome.latencies
        assert 0 <= outcome.latencies[lane] <= outcome.cycles_simulated
    # Non-failed lanes have no latency entry.
    for lane in range(outcome.n_lanes):
        if not outcome.verdict(lane)[0]:
            assert lane not in outcome.latencies


def test_campaign_aggregates_latency(tiny_campaign):
    result = tiny_campaign
    record = result.results["ff_tx_state[0]"]
    assert record.n_failures > 0
    assert record.mean_error_latency is not None
    assert record.mean_error_latency >= 0
    benign = result.results["ff_stat_tx_frames[0]"]
    assert benign.mean_error_latency is None


def test_latency_round_trips_json(tiny_campaign):
    from repro.faultinjection import CampaignResult

    result = tiny_campaign
    restored = CampaignResult.from_json(result.to_json())
    for name, record in result.results.items():
        assert restored.results[name].latency_sum == record.latency_sum


# ------------------------------------------------------------ SET faults


def test_set_on_output_buffer_net_is_detected(tiny_mac, tiny_injector, tiny_workload, tiny_golden):
    """A transient on the net feeding pkt_rx_val must fail when val is live."""
    first, _ = tiny_workload.active_window
    # Find a cycle where pkt_rx_val is asserted in the golden run.
    val_bit = tiny_golden.output_names.index("pkt_rx_val")
    live = next(
        c for c in range(first, tiny_golden.n_cycles)
        if (tiny_golden.outputs[c] >> val_bit) & 1
    )
    outcome = tiny_injector.run_set_batch(live, ["pkt_rx_val"])
    assert outcome.failed_mask == 1
    assert outcome.latencies[0] == 0  # visible in the injection cycle


def test_set_batch_multiple_nets(tiny_mac, tiny_injector, tiny_workload):
    first, _ = tiny_workload.active_window
    nets = ["pkt_rx_val", "stat_tx_frames_o[0]", "xgmii_txc"]
    outcome = tiny_injector.run_set_batch(first + 6, nets)
    assert outcome.n_lanes == 3
    # A transient on a statistics output can never be a functional failure.
    assert not (outcome.failed_mask >> 1) & 1


def test_set_is_logically_masked_sometimes(tiny_mac, tiny_injector, tiny_workload):
    """Transients during idle on data nets are masked by the criterion."""
    # Cycle 6 is after reset but before any traffic.
    outcome = tiny_injector.run_set_batch(6, ["pkt_rx_data[0]"])
    assert outcome.failed_mask == 0


def test_set_outside_trace_rejected(tiny_injector):
    with pytest.raises(ValueError):
        tiny_injector.run_set_batch(10**6, ["pkt_rx_val"])


#: SHA-256 over a SET sweep of the tiny preset: every
#: :meth:`SetSweepModel.enumerate_sites` net struck at the 7 cycles
#: ``range(6, 158, 25)`` of its active window, one ``[failed_mask, sorted
#: latencies, cycles_simulated]`` record per cycle.  ``run_set_batch`` has
#: no brute-force referee, so a change to its cycle steps (drive, loopback
#: pipeline, forcing, probes) fails here.
SET_SWEEP_TINY_DIGEST = "5a6046e31294b080c00501e5ffa1e3121963d698e28c9be1b864dcd38f47ff3e"


def test_set_sweep_is_pinned():
    from repro.campaigns.spec import CampaignSpec, build_context
    from repro.data import DATASET_PRESETS
    from repro.faultinjection import SetSweepModel

    context = build_context(CampaignSpec.from_dataset_spec(DATASET_PRESETS["tiny"]))
    assert context.active_window == (6, 158)
    injector = FaultInjector(
        context.netlist,
        context.workload.testbench,
        context.ensure_golden(),
        context.criterion,
    )
    nets = SetSweepModel().enumerate_sites(context.netlist)
    digest = hashlib.sha256()
    n_failed = 0
    for cycle in range(6, 158, 25):
        outcome = injector.run_set_batch(cycle, nets)
        n_failed += len(outcome.failed_lanes())
        record = [
            outcome.failed_mask,
            sorted(outcome.latencies.items()),
            outcome.cycles_simulated,
        ]
        digest.update(json.dumps(record).encode())
    assert (len(nets), n_failed) == (1202, 1023)
    assert digest.hexdigest() == SET_SWEEP_TINY_DIGEST


# ------------------------------------------------------- net activity


def test_net_activity_shapes(tiny_mac, tiny_golden):
    activity = collect_net_activity(tiny_mac, tiny_golden)
    assert set(activity) == set(tiny_mac.nets)
    for stats in activity.values():
        assert 0.0 <= stats.at_one <= 1.0
        assert 0.0 <= stats.toggle_rate <= 1.0
    # FF output activity must agree with the golden-trace-derived features.
    from repro.features import extract_dynamic

    dynamic = extract_dynamic(tiny_golden)
    for ff in list(dynamic)[:20]:
        q_net = tiny_mac.cells[ff].output_net()
        assert activity[q_net].at_one == pytest.approx(dynamic[ff]["at_one"], abs=0.05)


#: sha256 over every net's ``(at_one, toggle_rate)`` on the tiny MAC workload,
#: recorded from a closed-loop re-simulation that emulated the loopback
#: itself; the open-loop replay of ``applied_inputs`` must reproduce it.
NET_ACTIVITY_DIGEST = "98d2bc33bc8a2e9dd0a5ac86db0956fb9942d44657be02ec9059aa2d6a16efbe"


def test_net_activity_replay_is_pinned(tiny_mac, tiny_workload, tiny_golden):
    assert tiny_workload.testbench.loopbacks
    activity = collect_net_activity(tiny_mac, tiny_golden)
    rows = sorted((net, a.at_one, a.toggle_rate) for net, a in activity.items())
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == NET_ACTIVITY_DIGEST
    # Every flip-flop's Q net replays the golden trajectory exactly.
    n = tiny_golden.n_cycles
    for i, ff in enumerate(tiny_mac.flip_flops()):
        bits = [tiny_golden.ff_bit(i, c) for c in range(n)]
        toggles = sum(bits[c] != bits[c - 1] for c in range(1, n))
        q = activity[ff.output_net()]
        assert (q.at_one, q.toggle_rate) == (sum(bits) / n, toggles / n), ff.name


def test_extract_extended_features(tiny_mac, tiny_golden):
    activity = collect_net_activity(tiny_mac, tiny_golden)
    features = extract_extended(tiny_mac, activity)
    assert set(features) == set(tiny_mac.flip_flop_names())
    for row in features.values():
        assert set(row) == set(EXTENDED_FEATURES)
        assert all(0.0 <= v <= 1.0 for v in row.values())


def test_extend_dataset(tiny_dataset, tiny_mac, tiny_golden):
    enriched = extend_dataset(tiny_dataset, tiny_mac, tiny_golden)
    assert enriched.n_features == tiny_dataset.n_features + len(EXTENDED_FEATURES)
    assert enriched.groups["extended"] == list(EXTENDED_FEATURES)
    assert np.allclose(enriched.X[:, : tiny_dataset.n_features], tiny_dataset.X)
    assert np.allclose(enriched.y, tiny_dataset.y)


def test_run_extended_features_experiment(cached_tiny_dataset):
    result = run_extended_features(cached_tiny_dataset, cv_folds=3, seed=0)
    assert set(result.baseline_r2) == {"k-NN", "SVR w/ RBF Kernel"}
    for model, base in result.baseline_r2.items():
        # Extended features should not destroy performance.
        assert result.extended_r2[model] > base - 0.15
    assert "Extended feature set" in result.as_text()


def test_run_extended_features_requires_spec(tiny_dataset):
    with pytest.raises(ValueError, match="spec"):
        run_extended_features(tiny_dataset)
