"""Experiment: Table I — model comparison.

Reproduces "PERFORMANCE RESULTS FOR DIFFERENT REGRESSION MODELS (CROSS
VALIDATION = 10, TRAINING SIZE = 50 %)": MAE, MAX, RMSE, EV and R² for the
Linear Least Squares, k-NN and SVR models on the per-flip-flop FDR dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..features.dataset import Dataset
from ..flow.textview import format_table
from ..ml.model_selection import StratifiedRegressionKFold, cross_validate
from .common import CV_FOLDS, PAPER_TABLE1, TRAIN_SIZE, paper_models

__all__ = ["Table1Result", "run_table1"]


@dataclass
class Table1Result:
    """Measured Table I rows plus the paper's reference values."""

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    paper: Dict[str, Dict[str, float]] = field(default_factory=lambda: dict(PAPER_TABLE1))

    def as_text(self) -> str:
        headers = ["Model", "MAE", "MAX", "RMSE", "EV", "R2"]
        table_rows: List[List[object]] = []
        for model, metrics in self.rows.items():
            table_rows.append(
                [model, metrics["mae"], metrics["max"], metrics["rmse"], metrics["ev"], metrics["r2"]]
            )
        measured = format_table(
            headers,
            table_rows,
            title="Table I — measured (cross validation = 10, training size = 50 %)",
        )
        paper_rows = [
            [m, v["mae"], v["max"], v["rmse"], v["ev"], v["r2"]] for m, v in self.paper.items()
        ]
        reference = format_table(headers, paper_rows, title="Table I — paper reference")
        return measured + "\n\n" + reference

    def shape_holds(self) -> bool:
        """The paper's qualitative claim: LLS is clearly worst; k-NN ≈ SVR.

        Checks that both nonlinear models beat the linear baseline by a wide
        R² margin and land within 0.15 R² of each other.
        """
        r2 = {m: v["r2"] for m, v in self.rows.items()}
        lls = r2["Linear Least Squares"]
        knn = r2["k-NN"]
        svr = r2["SVR w/ RBF Kernel"]
        return knn > lls + 0.1 and svr > lls + 0.1 and abs(knn - svr) < 0.15


def run_table1(
    dataset: Dataset,
    cv_folds: int = CV_FOLDS,
    train_size: float = TRAIN_SIZE,
    seed: int = 0,
) -> Table1Result:
    """Run the Table I protocol on a labelled dataset."""
    result = Table1Result()
    splitter = StratifiedRegressionKFold(n_splits=cv_folds, random_state=seed)
    for name, model in paper_models().items():
        outcome = cross_validate(
            model,
            dataset.X,
            dataset.y,
            cv=splitter,
            train_size=train_size,
            random_state=seed,
        )
        result.rows[name] = outcome.summary()
    return result
