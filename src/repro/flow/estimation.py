"""End-to-end Functional De-Rating estimation flow (the paper's Fig. 1).

Two entry points:

* :func:`run_reference_flow` — the complete methodology on the circuit and
  workload a :class:`~repro.campaigns.CampaignSpec` describes: golden
  simulation, flat statistical fault-injection campaign (the reference),
  feature extraction, model training on a fraction and evaluation against
  the rest.  This is what the paper's section IV does end to end.
* :class:`FdrEstimator` — the production use-case: train on a labelled
  subset of flip-flops and predict FDR for the *unlabelled* remainder
  ("the trained model can be used to estimate the FDR values of the
  remaining flip-flops"), with no second campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..campaigns.executor import CampaignEngine
from ..campaigns.spec import CampaignSpec
from ..faultinjection.campaign import CampaignResult
from ..features.dataset import Dataset
from ..features.extractor import build_dataset
from ..ml.base import BaseEstimator, clone
from ..ml.metrics import all_metrics
from ..ml.model_selection import train_test_split

__all__ = ["FlowReport", "run_reference_flow", "FdrEstimator"]


@dataclass
class FlowReport:
    """Everything produced by one end-to-end flow run."""

    dataset: Dataset
    campaign: CampaignResult
    train_indices: np.ndarray
    test_indices: np.ndarray
    train_predictions: np.ndarray
    test_predictions: np.ndarray
    train_metrics: Dict[str, float]
    test_metrics: Dict[str, float]

    @property
    def y_train(self) -> np.ndarray:
        return self.dataset.y[self.train_indices]

    @property
    def y_test(self) -> np.ndarray:
        return self.dataset.y[self.test_indices]


def run_reference_flow(
    spec: CampaignSpec,
    model: BaseEstimator,
    train_size: float = 0.5,
    split_seed: int = 0,
) -> FlowReport:
    """The paper's full methodology on one campaign spec and model.

    Runs the campaign *spec* describes (circuit, workload, criterion,
    injections, seed; over every flip-flop unless ``spec.ff_names`` names
    a subset) so that the model can be validated against reference FDR
    values, then trains on a *train_size* fraction and evaluates on the
    remainder.
    """
    engine = CampaignEngine(spec)
    campaign = engine.run()
    context = engine.context
    dataset = build_dataset(context.netlist, context.ensure_golden(), campaign)
    estimator = FdrEstimator(model)
    return estimator.evaluate_split(dataset, campaign, train_size, split_seed)


class FdrEstimator:
    """Train-and-predict wrapper around any :mod:`repro.ml` regressor."""

    def __init__(self, model: BaseEstimator, clip: bool = True) -> None:
        self.model = model
        self.clip = clip

    def fit(self, dataset: Dataset, row_indices: Optional[Sequence[int]] = None) -> "FdrEstimator":
        """Fit on a dataset (optionally restricted to given rows)."""
        if row_indices is None:
            X, y = dataset.X, dataset.y
        else:
            idx = np.asarray(list(row_indices))
            X, y = dataset.X[idx], dataset.y[idx]
        self.fitted_ = clone(self.model)
        self.fitted_.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict FDR values (clipped to [0, 1] when ``clip``)."""
        if not hasattr(self, "fitted_"):
            raise RuntimeError("FdrEstimator is not fitted")
        pred = self.fitted_.predict(np.asarray(X, dtype=np.float64))
        if self.clip:
            pred = np.clip(pred, 0.0, 1.0)
        return pred

    def predict_dataset(self, dataset: Dataset) -> Dict[str, float]:
        """Per-flip-flop FDR predictions keyed by instance name."""
        pred = self.predict(dataset.X)
        return {name: float(p) for name, p in zip(dataset.ff_names, pred)}

    def evaluate_split(
        self,
        dataset: Dataset,
        campaign: CampaignResult,
        train_size: float = 0.5,
        split_seed: int = 0,
    ) -> FlowReport:
        """Train/evaluate on a stratified split of a labelled dataset."""
        (
            X_train,
            X_test,
            y_train,
            y_test,
            idx_train,
            idx_test,
        ) = train_test_split(
            dataset.X,
            dataset.y,
            train_size=train_size,
            random_state=split_seed,
            stratify_bins=10,
        )
        self.fit(dataset, idx_train)
        train_pred = self.predict(X_train)
        test_pred = self.predict(X_test)
        return FlowReport(
            dataset=dataset,
            campaign=campaign,
            train_indices=idx_train,
            test_indices=idx_test,
            train_predictions=train_pred,
            test_predictions=test_pred,
            train_metrics=all_metrics(y_train, train_pred),
            test_metrics=all_metrics(y_test, test_pred),
        )

    def campaign_cost_saving(self, dataset: Dataset, train_size: float) -> Dict[str, float]:
        """The paper's headline economics: campaign cost vs training size.

        Returns the number of injections saved relative to a full flat
        campaign and the equivalent cost-reduction factor (2x at 50 %
        training, up to 5x at 20 %).
        """
        n_total = dataset.n_samples
        n_trained = int(round(train_size * n_total))
        n_injections = int(dataset.meta.get("n_injections", 0) or 0)
        return {
            "flip_flops_total": float(n_total),
            "flip_flops_injected": float(n_trained),
            "injections_saved": float((n_total - n_trained) * n_injections),
            "cost_reduction_factor": float(n_total) / max(1.0, float(n_trained)),
        }
