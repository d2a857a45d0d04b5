"""Extension experiment: do additional features help? (paper §V).

"Additionally, further features should be considered to improve the overall
performance of the models."  This experiment appends the four net-activity
features of :mod:`repro.features.extended` to the paper's feature set and
re-runs the Table I protocol for k-NN and SVR, reporting the R² delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..campaigns.spec import CampaignSpec
from ..campaigns.warmstart import warm_context
from ..data import DatasetSpec
from ..features.dataset import Dataset
from ..features.extended import extend_dataset
from ..flow.textview import format_table
from ..ml.model_selection import StratifiedRegressionKFold, cross_validate
from .common import CV_FOLDS, TRAIN_SIZE, paper_models

__all__ = ["ExtendedFeaturesResult", "run_extended_features"]


@dataclass
class ExtendedFeaturesResult:
    """R² with the paper feature set vs. paper + extended."""

    baseline_r2: Dict[str, float] = field(default_factory=dict)
    extended_r2: Dict[str, float] = field(default_factory=dict)

    def as_text(self) -> str:
        rows = []
        for model in self.baseline_r2:
            base = self.baseline_r2[model]
            ext = self.extended_r2[model]
            rows.append([model, base, ext, ext - base])
        return format_table(
            ["Model", "paper features R2", "+extended R2", "delta"],
            rows,
            title=(
                "Extended feature set (paper section V) — "
                f"cv = {CV_FOLDS}, training size = {TRAIN_SIZE:.0%}"
            ),
        )


def run_extended_features(
    dataset: Dataset,
    cv_folds: int = CV_FOLDS,
    train_size: float = TRAIN_SIZE,
    seed: int = 0,
) -> ExtendedFeaturesResult:
    """Compare the paper feature set against paper + extended features.

    The dataset must carry its generation spec in ``meta['spec']`` (datasets
    from :mod:`repro.data` do): the campaign context it describes supplies
    the netlist and the golden run the net-level activity pass replays.  It
    comes from the process-wide warm cache, so a dataset generated in this
    process reuses the circuit and golden trace its campaign built.
    """
    spec_dict = dataset.meta.get("spec")
    if not spec_dict:
        raise ValueError("dataset lacks meta['spec']; regenerate via repro.data")
    context, _hit = warm_context(CampaignSpec.from_dataset_spec(DatasetSpec(**spec_dict)))
    enriched = extend_dataset(dataset, context.netlist, context.ensure_golden())

    result = ExtendedFeaturesResult()
    cv = StratifiedRegressionKFold(n_splits=cv_folds, random_state=seed)
    for name in ("k-NN", "SVR w/ RBF Kernel"):
        model = paper_models()[name]
        base = cross_validate(
            model, dataset.X, dataset.y, cv=cv, train_size=train_size, random_state=seed
        )
        ext = cross_validate(
            model, enriched.X, enriched.y, cv=cv, train_size=train_size, random_state=seed
        )
        result.baseline_r2[name] = base.mean_test("r2")
        result.extended_r2[name] = ext.mean_test("r2")
    return result
