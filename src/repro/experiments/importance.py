"""Extension experiment: per-feature value (paper section V).

"the value of each feature needs to be evaluated separately" — this
experiment fits the best nonlinear paper model (k-NN) on a training split
and ranks every feature by permutation importance on the held-out split.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..features.dataset import Dataset
from ..flow.textview import format_table
from ..ml.base import clone
from ..ml.inspection import PermutationImportanceResult, permutation_importance
from ..ml.model_selection import train_test_split
from .common import TRAIN_SIZE, paper_models

__all__ = ["ImportanceResult", "run_importance"]


@dataclass
class ImportanceResult:
    """Permutation-importance ranking of the paper's feature set."""

    model_name: str
    baseline_r2: float
    result: PermutationImportanceResult = None  # type: ignore[assignment]

    def as_text(self, top: int = 15) -> str:
        rows = self.result.as_rows()[:top]
        return format_table(
            ["Feature", "R2 drop (mean)", "std"],
            rows,
            title=(
                f"Permutation importance — {self.model_name}, "
                f"held-out R2 = {self.baseline_r2:.3f}"
            ),
        )


def run_importance(
    dataset: Dataset,
    model_name: str = "k-NN",
    train_size: float = TRAIN_SIZE,
    n_repeats: int = 5,
    seed: int = 0,
) -> ImportanceResult:
    """Rank the paper's features by held-out permutation importance."""
    model = clone(paper_models()[model_name])
    X_tr, X_te, y_tr, y_te, _, _ = train_test_split(
        dataset.X, dataset.y, train_size=train_size, random_state=seed, stratify_bins=10
    )
    model.fit(X_tr, y_tr)
    result = permutation_importance(
        model,
        X_te,
        y_te,
        feature_names=dataset.feature_names,
        n_repeats=n_repeats,
        random_state=seed,
    )
    return ImportanceResult(
        model_name=model_name,
        baseline_r2=result.baseline_score,
        result=result,
    )
