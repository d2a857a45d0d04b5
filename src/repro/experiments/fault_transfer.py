"""SEU→MBU fault-model transfer: do single-bit labels predict cluster labels?

The paper trains per-flip-flop FDR predictors on single-bit SEU campaigns.
The pitch — fault sensitivity is a function of netlist structure — only
carries weight if the learned mapping survives a change of *label family*:
a spatially-correlated multi-bit upset disturbs a whole placement
neighborhood, so its per-anchor FDR is a different (usually higher)
quantity than the SEU FDR of the same flip-flop.

This experiment measures that transfer directly on one circuit: every
paper model is fit on the circuit's SEU-labelled dataset and scored
against an independently generated target-model dataset (default
``mbu:size=3,radius=1,seed=0``) over the *same* flip-flops and features.
The in-circuit SEU split (the Table I protocol) is reported next to each
transfer row, so the cost of crossing label families is visible at a
glance.

Run it as ``python -m repro.experiments seu-mbu --scale mini`` or through
the unified runner (``ExperimentSpec.make("seu-mbu", scale="mini")``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

import numpy as np

from ..data import DATASET_PRESETS
from ..faultinjection.faults import canonical_fault_model
from ..features.dataset import Dataset
from ..flow.textview import format_table
from ..ml.base import clone
from ..ml.metrics import all_metrics
from .common import TRAIN_SIZE, paper_models
from .spec import (
    ExperimentContext,
    ExperimentOutcome,
    ExperimentSpec,
    register_experiment,
)
from .transfer import _diagonal_metrics

__all__ = ["DEFAULT_TARGET_MODEL", "FaultTransferResult", "run_fault_transfer"]

#: Target label family of the headline experiment: a 3-bit cluster over the
#: radius-1 structural neighborhood (see ``docs/fault_models.md``).
DEFAULT_TARGET_MODEL = "mbu:size=3,radius=1,seed=0"


@dataclass
class FaultTransferResult:
    """Per-model R²/MAE of SEU-trained predictors on target-model labels."""

    circuit: str
    target_model: str
    n_samples: int
    seu_mean_fdr: float
    target_mean_fdr: float
    #: ``rows[model] = {"seu_r2", "seu_mae", "transfer_r2", "transfer_mae"}``
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_text(self) -> str:
        headers = ["Model", "SEU R²", "SEU MAE", "→ R²", "→ MAE"]
        table_rows = [
            [
                name,
                row["seu_r2"],
                row["seu_mae"],
                row["transfer_r2"],
                row["transfer_mae"],
            ]
            for name, row in self.rows.items()
        ]
        table = format_table(
            headers,
            table_rows,
            title=(
                f"SEU → {self.target_model} transfer on {self.circuit} "
                "(SEU columns: in-circuit 50% split)"
            ),
        )
        summary = (
            f"\nlabels: {self.n_samples} flip-flops, mean FDR "
            f"{self.seu_mean_fdr:.3f} (seu) vs {self.target_mean_fdr:.3f} "
            f"({self.target_model})"
            f"\nbest transfer model: {self.best_model()} "
            f"(R² {self.rows[self.best_model()]['transfer_r2']:.3f})"
        )
        return table + summary

    def best_model(self) -> str:
        return max(self.rows, key=lambda name: self.rows[name]["transfer_r2"])

    def to_json(self) -> str:
        return json.dumps(
            {
                "circuit": self.circuit,
                "target_model": self.target_model,
                "n_samples": self.n_samples,
                "seu_mean_fdr": self.seu_mean_fdr,
                "target_mean_fdr": self.target_mean_fdr,
                "rows": self.rows,
            },
            indent=2,
        )


def run_fault_transfer(
    seu_dataset: Dataset,
    target_dataset: Dataset,
    model_names: Optional[Sequence[str]] = None,
    train_size: float = TRAIN_SIZE,
    seed: int = 0,
) -> FaultTransferResult:
    """Fit every paper model on SEU labels, score on target-model labels.

    Both datasets must describe the same flip-flops of the same circuit
    (identical workload/feature rows; only the label campaign differs).
    The transfer cells fit on the *full* SEU dataset — the realistic use:
    the SEU campaign exists, the MBU campaign is what one hopes to skip.
    """
    if list(seu_dataset.ff_names) != list(target_dataset.ff_names):
        raise ValueError(
            "fault-model transfer needs identical flip-flop rows; got "
            f"{len(seu_dataset.ff_names)} vs {len(target_dataset.ff_names)} "
            "mismatching names"
        )
    names = list(model_names) if model_names is not None else list(paper_models())
    known = paper_models()
    result = FaultTransferResult(
        circuit=str(seu_dataset.meta.get("circuit", "?")),
        target_model=str(
            target_dataset.meta.get("fault_model", DEFAULT_TARGET_MODEL)
        ),
        n_samples=seu_dataset.n_samples,
        seu_mean_fdr=float(np.mean(seu_dataset.y)),
        target_mean_fdr=float(np.mean(target_dataset.y)),
    )
    for name in names:
        baseline = _diagonal_metrics(
            seu_dataset, name, train_size=train_size, seed=seed
        )
        model = clone(known[name])
        model.fit(seu_dataset.X, seu_dataset.y)
        transfer = all_metrics(target_dataset.y, model.predict(target_dataset.X))
        result.rows[name] = {
            "seu_r2": round(float(baseline["r2"]), 4),
            "seu_mae": round(float(baseline["mae"]), 4),
            "transfer_r2": round(float(transfer["r2"]), 4),
            "transfer_mae": round(float(transfer["mae"]), 4),
        }
    return result


@register_experiment("seu-mbu")
def _fault_transfer_protocol(
    ctx: ExperimentContext, spec: ExperimentSpec
) -> ExperimentOutcome:
    """Registry protocol: pull the SEU and target-model datasets, run."""
    target_model = canonical_fault_model(
        str(spec.option("fault_model", DEFAULT_TARGET_MODEL))
    )
    model_names: Optional[Sequence[str]] = spec.option("models")
    if model_names is not None:
        known = paper_models()
        unknown = [m for m in model_names if m not in known]
        if unknown:
            raise KeyError(
                f"unknown transfer models {unknown}; choose from {sorted(known)}"
            )
    base_spec = DATASET_PRESETS[spec.scale]
    seu_dataset = ctx.dataset(spec=base_spec)
    target_dataset = ctx.dataset(spec=replace(base_spec, fault_model=target_model))
    result = run_fault_transfer(
        seu_dataset, target_dataset, model_names=model_names, seed=spec.seed
    )
    return ExperimentOutcome(
        spec=spec,
        result=result,
        text=result.as_text(),
        exports={"fault_transfer.json": result.to_json()},
    )
