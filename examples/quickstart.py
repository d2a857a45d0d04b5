#!/usr/bin/env python
"""Quickstart: the paper's methodology end to end in ~30 seconds.

Builds the (mini) 10GE-MAC-style circuit, runs the frame-streaming
testbench, runs a reduced statistical fault-injection campaign to obtain
per-flip-flop Functional De-Rating (FDR) reference values, extracts the
paper's feature set, trains the k-NN model on half the flip-flops and
predicts the FDR of the other half.

Run:
    python examples/quickstart.py
"""

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.features import build_dataset
from repro.flow import FdrEstimator, format_table
from repro.ml import KNeighborsRegressor, StandardScaler, make_pipeline
from repro.ml.model_selection import train_test_split
from repro.ml.metrics import all_metrics


def main() -> None:
    # The campaign spec names the device under test (a MAC core with FIFOs,
    # CRC engines and FSMs), its workload (frames through TX -> XGMII
    # loopback -> RX), the packet failure criterion and the injection budget.
    spec = CampaignSpec(
        circuit="xgmac_mini",
        n_frames=8,
        min_len=4,
        max_len=7,
        workload_seed=1,
        n_injections=40,
        seed=0,
        schedule="legacy",
    )
    engine = CampaignEngine(spec)

    # 1. The device under test.
    print("synthesizing the MAC core ...")
    netlist = engine.context.netlist
    stats = netlist.stats()
    print(f"  {stats.n_cells} cells, {stats.n_sequential} flip-flops\n")

    # 2. The workload.
    workload = engine.context.workload
    print(f"testbench: {workload.testbench.n_cycles} cycles, {len(workload.frames)} frames")

    # 3. Reference FDR values from a statistical fault-injection campaign.
    print("running the fault-injection campaign (40 SEUs per flip-flop) ...")
    campaign = engine.run()
    print(
        f"  {campaign.n_forward_runs} bit-parallel forward runs, "
        f"mean FDR = {campaign.mean_fdr():.3f}\n"
    )

    # 4. Features + labels -> dataset.
    dataset = build_dataset(netlist, engine.context.ensure_golden(), campaign)
    print(f"dataset: {dataset.n_samples} flip-flops x {dataset.n_features} features")

    # 5. Train on 50 %, predict the rest (the paper's cost-saving scenario).
    X_tr, X_te, y_tr, y_te, idx_tr, idx_te = train_test_split(
        dataset.X, dataset.y, train_size=0.5, random_state=0, stratify_bins=10
    )
    model = make_pipeline(
        StandardScaler(), KNeighborsRegressor(3, metric="manhattan", weights="distance")
    )
    estimator = FdrEstimator(model)
    estimator.fit(dataset, idx_tr)
    predictions = estimator.predict(X_te)

    metrics = all_metrics(y_te, predictions)
    print()
    print(
        format_table(
            ["Metric", "Value"],
            [[k.upper(), v] for k, v in metrics.items()],
            title="k-NN prediction of unseen flip-flops (paper Table I protocol)",
        )
    )

    savings = estimator.campaign_cost_saving(dataset, train_size=0.5)
    print(
        f"\ncampaign cost reduction: {savings['cost_reduction_factor']:.1f}x "
        f"({savings['injections_saved']:.0f} fault injections avoided)"
    )

    print("\nmost critical flip-flops (predicted):")
    ranked = sorted(
        zip((dataset.ff_names[i] for i in idx_te), predictions),
        key=lambda item: -item[1],
    )
    for name, fdr in ranked[:8]:
        print(f"  {fdr:.3f}  {name}")


if __name__ == "__main__":
    main()
