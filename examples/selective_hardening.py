#!/usr/bin/env python
"""Selective hardening: the use-case motivating the paper.

Functional safety flows use per-instance de-rating factors to decide *which*
flip-flops to protect (TMR, parity, hardened cells) — see the paper's
references [3]-[5].  Protecting everything is too expensive; protecting by
guesswork misses critical state.  This example shows the ML-estimated FDR
values driving that decision:

1. run the reference campaign on HALF the flip-flops only (the affordable
   campaign),
2. train the SVR model and predict FDR for the *uninjected* half,
3. select a hardening set to cover a target fraction of the overall
   functional failure rate,
4. validate the selection against the (normally unavailable) full campaign.

Run:
    python examples/selective_hardening.py
"""

from dataclasses import replace

import numpy as np

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.features import build_dataset
from repro.flow import FdrEstimator, format_table
from repro.ml import SVR, StandardScaler, make_pipeline

HARDENING_TARGET = 0.80  # cover 80 % of the summed FDR


def main() -> None:
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
    context = CampaignEngine(spec).context
    netlist = context.netlist
    golden = context.ensure_golden()

    ff_names = netlist.flip_flop_names()
    rng = np.random.default_rng(0)
    injected = sorted(rng.choice(len(ff_names), size=len(ff_names) // 2, replace=False))
    injected_names = [ff_names[i] for i in injected]

    print(f"campaign on {len(injected_names)} of {len(ff_names)} flip-flops ...")
    train_campaign = CampaignEngine(replace(spec, ff_names=tuple(injected_names))).run()
    train_dataset = build_dataset(netlist, golden, train_campaign)

    # Features for every flip-flop (labels exist only for the injected half).
    from repro.features import FeatureExtractor, ALL_FEATURES

    extractor = FeatureExtractor(netlist)
    features = extractor.extract(golden)

    model = make_pipeline(StandardScaler(), SVR(C=3.5, gamma=0.055, epsilon=0.025))
    estimator = FdrEstimator(model)
    estimator.fit(train_dataset)

    known = {name: train_campaign.results[name].fdr for name in injected_names}
    unknown_names = [n for n in ff_names if n not in known]
    X_unknown = np.array(
        [[features[n][c] for c in ALL_FEATURES] for n in unknown_names]
    )
    predicted = dict(zip(unknown_names, estimator.predict(X_unknown)))

    combined = {**known, **predicted}
    ranked = sorted(combined.items(), key=lambda item: -item[1])
    total = sum(combined.values())
    covered, hardened = 0.0, []
    for name, fdr in ranked:
        if covered >= HARDENING_TARGET * total:
            break
        hardened.append(name)
        covered += fdr

    print(
        f"\nhardening set: {len(hardened)} / {len(ff_names)} flip-flops "
        f"({len(hardened) / len(ff_names):.0%}) covers "
        f"{covered / total:.0%} of the estimated failure rate"
    )

    # Validation against the full campaign (the expensive ground truth).
    print("\nvalidating against the full flat campaign ...")
    full_campaign = CampaignEngine(spec).run()
    true_total = sum(r.fdr for r in full_campaign.results.values())
    true_covered = sum(full_campaign.results[n].fdr for n in hardened)
    print(
        format_table(
            ["Quantity", "Value"],
            [
                ["target coverage", HARDENING_TARGET],
                ["estimated coverage", covered / total],
                ["TRUE coverage of selection", true_covered / true_total],
                ["flip-flops hardened", float(len(hardened))],
            ],
            title="Selective-hardening outcome",
        )
    )


if __name__ == "__main__":
    main()
