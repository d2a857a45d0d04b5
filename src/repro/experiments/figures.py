"""Experiments: Figures 2, 3 and 4.

For each model (Fig. 2 = Linear Least Squares, Fig. 3 = k-NN, Fig. 4 = SVR)
the paper shows:

(a) the prediction of one example train/test fold at training size 50 % —
    true FDR vs predicted FDR per flip-flop, plus the per-flip-flop
    prediction error;
(b) the learning curve — train and test R² versus the fraction of data used
    for training, under 10-fold cross-validation.

This module regenerates both as data series (with CSV export) and ASCII
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..features.dataset import Dataset
from ..flow.textview import ascii_series_plot, ascii_xy_plot, series_to_csv
from ..ml.base import clone
from ..ml.model_selection import (
    LearningCurveResult,
    StratifiedRegressionKFold,
    learning_curve,
    train_test_split,
)
from .common import CV_FOLDS, LEARNING_CURVE_SIZES, TRAIN_SIZE, paper_models

__all__ = ["FigureResult", "run_figure", "FIGURE_MODELS"]

#: Figure number -> paper model name.
FIGURE_MODELS: Dict[str, str] = {
    "fig2": "Linear Least Squares",
    "fig3": "k-NN",
    "fig4": "SVR w/ RBF Kernel",
}


@dataclass
class FigureResult:
    """Data behind one paper figure (both subfigures)."""

    figure: str
    model_name: str
    # Subfigure (a): example fold prediction.
    train_true: np.ndarray = field(default_factory=lambda: np.empty(0))
    train_pred: np.ndarray = field(default_factory=lambda: np.empty(0))
    test_true: np.ndarray = field(default_factory=lambda: np.empty(0))
    test_pred: np.ndarray = field(default_factory=lambda: np.empty(0))
    # Subfigure (b): learning curve.
    curve: Optional[LearningCurveResult] = None

    @property
    def test_error(self) -> np.ndarray:
        return self.test_pred - self.test_true

    # ----------------------------------------------------------- rendering

    def prediction_csv(self) -> str:
        """CSV of the (a) subfigure series."""
        return series_to_csv(
            {
                "train_true": self.train_true.tolist(),
                "train_pred": self.train_pred.tolist(),
                "test_true": self.test_true.tolist(),
                "test_pred": self.test_pred.tolist(),
            }
        )

    def curve_csv(self) -> str:
        """CSV of the (b) subfigure series."""
        if self.curve is None:
            return ""
        return series_to_csv(
            {
                "train_size": self.curve.train_sizes,
                "train_r2": self.curve.mean_train(),
                "test_r2": self.curve.mean_test(),
                "test_r2_std": self.curve.std_test(),
            }
        )

    def as_text(self) -> str:
        lines: List[str] = []
        index_test = list(range(len(self.test_true)))
        lines.append(
            ascii_xy_plot(
                {
                    "true": (index_test, self.test_true.tolist()),
                    "predicted": (index_test, self.test_pred.tolist()),
                },
                title=f"{self.figure}a — {self.model_name}: test-fold prediction "
                f"(training size = {TRAIN_SIZE:.0%})",
                y_range=(-0.2, 1.2),
                height=14,
            )
        )
        lines.append(
            ascii_xy_plot(
                {"error": (index_test, self.test_error.tolist())},
                title=f"{self.figure}a — model prediction error (test)",
                height=10,
            )
        )
        if self.curve is not None:
            lines.append(
                ascii_series_plot(
                    self.curve.train_sizes,
                    {
                        "train R2": self.curve.mean_train(),
                        "test R2": self.curve.mean_test(),
                    },
                    title=f"{self.figure}b — learning curve (cv = {CV_FOLDS})",
                    y_range=(-0.2, 1.05),
                    height=14,
                )
            )
        return "\n\n".join(lines)


def run_figure(
    dataset: Dataset,
    figure: str,
    cv_folds: int = CV_FOLDS,
    train_size: float = TRAIN_SIZE,
    curve_sizes: Sequence[float] = LEARNING_CURVE_SIZES,
    seed: int = 0,
    with_curve: bool = True,
) -> FigureResult:
    """Regenerate one of Figs. 2/3/4 on a labelled dataset."""
    try:
        model_name = FIGURE_MODELS[figure]
    except KeyError:
        raise KeyError(f"unknown figure {figure!r}; choose from {sorted(FIGURE_MODELS)}") from None
    model = paper_models()[model_name]

    # (a) one example split at the table's training size.
    X_train, X_test, y_train, y_test, _, _ = train_test_split(
        dataset.X, dataset.y, train_size=train_size, random_state=seed, stratify_bins=10
    )
    fitted = clone(model)
    fitted.fit(X_train, y_train)
    result = FigureResult(
        figure=figure,
        model_name=model_name,
        train_true=y_train,
        train_pred=fitted.predict(X_train),
        test_true=y_test,
        test_pred=fitted.predict(X_test),
    )

    # (b) the learning curve over training sizes.
    if with_curve:
        max_size = 1.0 - 1.0 / cv_folds  # the CV split caps usable training data
        sizes = [s for s in curve_sizes if s <= max_size + 1e-9]
        result.curve = learning_curve(
            model,
            dataset.X,
            dataset.y,
            train_sizes=sizes,
            cv=StratifiedRegressionKFold(n_splits=cv_folds, random_state=seed),
            random_state=seed,
        )
    return result
