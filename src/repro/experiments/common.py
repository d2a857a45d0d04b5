"""Shared experiment machinery: paper models, protocol constants.

The three Table-I models with the paper's tuned hyperparameters:

* Linear Least Squares (no hyperparameters),
* k-NN with ``k = 3`` and the Manhattan distance, inverse-distance weights,
* SVR with RBF kernel, ``C = 3.5``, ``γ = 0.055``, ``ε = 0.025``

and the future-work models (section V).  Distance/kernel models run behind a
standard scaler inside a pipeline, as they must for this mixed-scale feature
set.
"""

from __future__ import annotations

from typing import Dict

from ..ml.base import BaseEstimator
from ..ml.ensemble import GradientBoostingRegressor, RandomForestRegressor
from ..ml.linear import LinearLeastSquares
from ..ml.mlp import MLPRegressor
from ..ml.neighbors import KNeighborsRegressor
from ..ml.pipeline import Pipeline
from ..ml.preprocessing import StandardScaler
from ..ml.svr import SVR
from ..ml.tree import DecisionTreeRegressor

__all__ = [
    "CV_FOLDS",
    "TRAIN_SIZE",
    "LEARNING_CURVE_SIZES",
    "paper_models",
    "future_work_models",
    "PAPER_TABLE1",
]

#: The paper's protocol: "cross validation fold of 10 and training size of 50 %".
CV_FOLDS = 10
TRAIN_SIZE = 0.5
#: Training sizes swept by the learning curves (Figs. 2b/3b/4b).
LEARNING_CURVE_SIZES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Paper Table I reference values (for EXPERIMENTS.md comparison).
PAPER_TABLE1 = {
    "Linear Least Squares": {"mae": 0.165, "max": 0.944, "rmse": 0.218, "ev": 0.520, "r2": 0.519},
    "k-NN": {"mae": 0.050, "max": 0.907, "rmse": 0.124, "ev": 0.843, "r2": 0.842},
    "SVR w/ RBF Kernel": {"mae": 0.063, "max": 0.849, "rmse": 0.124, "ev": 0.845, "r2": 0.844},
}


def paper_models() -> Dict[str, BaseEstimator]:
    """The three models of Table I with the paper's hyperparameters."""
    return {
        "Linear Least Squares": LinearLeastSquares(),
        "k-NN": Pipeline(
            [
                ("scaler", StandardScaler()),
                (
                    "knn",
                    KNeighborsRegressor(n_neighbors=3, metric="manhattan", weights="distance"),
                ),
            ]
        ),
        "SVR w/ RBF Kernel": Pipeline(
            [
                ("scaler", StandardScaler()),
                ("svr", SVR(C=3.5, gamma=0.055, epsilon=0.025, kernel="rbf")),
            ]
        ),
    }


def future_work_models(random_state: int = 0) -> Dict[str, BaseEstimator]:
    """The models the paper names as future work (section V)."""
    return {
        "Decision Tree": DecisionTreeRegressor(max_depth=12, min_samples_leaf=2),
        "Random Forest": RandomForestRegressor(
            n_estimators=60, min_samples_leaf=2, random_state=random_state
        ),
        "Gradient Boosting": GradientBoostingRegressor(
            n_estimators=150, max_depth=3, learning_rate=0.1, random_state=random_state
        ),
        "MLP": Pipeline(
            [
                ("scaler", StandardScaler()),
                (
                    "mlp",
                    MLPRegressor(
                        hidden_layer_sizes=(64, 32),
                        max_epochs=200,
                        random_state=random_state,
                    ),
                ),
            ]
        ),
    }
