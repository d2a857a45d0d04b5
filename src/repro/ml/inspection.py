"""Model inspection: permutation feature importance.

The paper's future work calls for evaluating "the value of each feature …
separately" (and warns about the curse of dimensionality, citing Trunk).
Permutation importance measures exactly that: the drop in a fitted model's
score when one feature column is shuffled, breaking its relationship with
the target while preserving its marginal distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .base import BaseEstimator, check_X_y
from .metrics import METRIC_FUNCTIONS

__all__ = ["PermutationImportanceResult", "permutation_importance"]


@dataclass
class PermutationImportanceResult:
    """Per-feature score drops (mean and std over repeats)."""

    feature_names: List[str]
    baseline_score: float
    importances_mean: np.ndarray = field(default_factory=lambda: np.empty(0))
    importances_std: np.ndarray = field(default_factory=lambda: np.empty(0))

    def ranking(self) -> List[str]:
        """Feature names ordered from most to least important."""
        order = np.argsort(-self.importances_mean)
        return [self.feature_names[i] for i in order]

    def as_rows(self) -> List[List[object]]:
        """Table rows ``[feature, mean_drop, std]`` sorted by importance."""
        order = np.argsort(-self.importances_mean)
        return [
            [
                self.feature_names[i],
                float(self.importances_mean[i]),
                float(self.importances_std[i]),
            ]
            for i in order
        ]


def permutation_importance(
    model: BaseEstimator,
    X,
    y,
    feature_names: Optional[Sequence[str]] = None,
    metric: str = "r2",
    n_repeats: int = 5,
    random_state: Optional[int] = None,
) -> PermutationImportanceResult:
    """Permutation importance of a *fitted* model on held-out data.

    Importance of feature *j* = ``score(X, y) - mean(score(X_perm_j, y))``
    over *n_repeats* shuffles.  Positive values mean the model relies on the
    feature; values near zero mean it is ignored (or redundant with others).
    """
    X, y = check_X_y(X, y)
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length does not match X columns")
    score_fn = METRIC_FUNCTIONS[metric]
    rng = np.random.default_rng(random_state)
    baseline = score_fn(y, model.predict(X))
    means = np.empty(X.shape[1])
    stds = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for _ in range(n_repeats):
            permuted = X.copy()
            permuted[:, j] = rng.permutation(permuted[:, j])
            drops.append(baseline - score_fn(y, model.predict(permuted)))
        means[j] = float(np.mean(drops))
        stds[j] = float(np.std(drops))
    return PermutationImportanceResult(
        feature_names=list(feature_names),
        baseline_score=baseline,
        importances_mean=means,
        importances_std=stds,
    )
