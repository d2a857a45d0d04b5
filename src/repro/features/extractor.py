"""Feature extraction orchestration.

Combines the three feature groups of paper section III-B — structural,
synthesis and dynamic — into a single per-flip-flop matrix, and assembles a
labelled :class:`~repro.features.dataset.Dataset` when paired with a fault
campaign's FDR results.

Graph-derived quantities are computed once per netlist by the batched
engine (:mod:`repro.features.vectorized`).  The per-flip-flop traversal
reference, ``CircuitGraph(netlist).stats()``, yields the same quantities
and can be passed to the group extractors as ``stats=`` (the tests hold the
two to bit identity).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..faultinjection.campaign import CampaignResult
from ..netlist.core import Netlist
from ..sim.testbench import GoldenTrace
from .dataset import Dataset
from .dynamic import DYNAMIC_FEATURES, extract_dynamic
from .structural import STRUCTURAL_FEATURES, extract_structural
from .synthesis import SYNTHESIS_FEATURES, extract_synthesis
from .vectorized import CircuitStats, compute_circuit_stats

__all__ = ["FeatureExtractor", "build_dataset", "ALL_FEATURES", "FEATURE_GROUPS"]

ALL_FEATURES: List[str] = [
    *STRUCTURAL_FEATURES,
    *SYNTHESIS_FEATURES,
    *DYNAMIC_FEATURES,
]

FEATURE_GROUPS: Dict[str, List[str]] = {
    "structural": list(STRUCTURAL_FEATURES),
    "synthesis": list(SYNTHESIS_FEATURES),
    "dynamic": list(DYNAMIC_FEATURES),
}


class FeatureExtractor:
    """Extracts the full paper feature set for every flip-flop of a netlist."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.stats: CircuitStats = compute_circuit_stats(netlist)
        self.ff_names: List[str] = list(self.stats.ff_names)

    def extract(self, golden: GoldenTrace) -> Dict[str, Dict[str, float]]:
        """Per-flip-flop feature dictionaries (all groups merged)."""
        structural = extract_structural(self.netlist, stats=self.stats)
        synthesis = extract_synthesis(self.netlist, stats=self.stats)
        dynamic = extract_dynamic(golden)
        merged: Dict[str, Dict[str, float]] = {}
        for name in self.ff_names:
            row: Dict[str, float] = {}
            row.update(structural[name])
            row.update(synthesis[name])
            row.update(dynamic[name])
            merged[name] = row
        return merged

    def matrix(self, golden: GoldenTrace) -> np.ndarray:
        """Feature matrix in ``netlist.flip_flops()`` row order."""
        features = self.extract(golden)
        rows = [
            [features[name][col] for col in ALL_FEATURES] for name in self.ff_names
        ]
        return np.array(rows, dtype=np.float64)


def build_dataset(
    netlist: Netlist,
    golden: GoldenTrace,
    campaign: CampaignResult,
    meta: Optional[Dict[str, object]] = None,
) -> Dataset:
    """Assemble the labelled dataset from features and campaign FDR results.

    Rows are restricted to flip-flops present in the campaign (a training
    subset campaign yields a training subset dataset) *and* actually
    measured by it — a flip-flop with zero injections has an undefined FDR
    (``nan``), which must not become a training label.
    """
    extractor = FeatureExtractor(netlist)
    features = extractor.extract(golden)
    ff_names = [
        name
        for name in extractor.ff_names
        if name in campaign.results and campaign.results[name].n_injections > 0
    ]
    X = np.array(
        [[features[name][col] for col in ALL_FEATURES] for name in ff_names],
        dtype=np.float64,
    )
    y = np.array([campaign.results[name].fdr for name in ff_names], dtype=np.float64)
    dataset_meta: Dict[str, object] = {
        "circuit": netlist.name,
        "n_injections": campaign.n_injections,
        "campaign_seed": campaign.seed,
    }
    if meta:
        dataset_meta.update(meta)
    return Dataset(
        ff_names=ff_names,
        feature_names=list(ALL_FEATURES),
        X=X,
        y=y,
        groups={g: list(cols) for g, cols in FEATURE_GROUPS.items()},
        meta=dataset_meta,
    )
