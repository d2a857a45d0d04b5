"""Ensemble regressors: random forest and gradient boosting.

Both appear in the paper's future-work list ("Multi-Layer Perception Neural
Networks, or using boosting algorithms"); the experiments package evaluates
them alongside the three paper models on the same dataset.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import BaseEstimator, check_X, check_X_y
from .tree import DecisionTreeRegressor

__all__ = ["RandomForestRegressor", "GradientBoostingRegressor"]


class RandomForestRegressor(BaseEstimator):
    """Bagged CART trees with per-split feature subsampling.

    Parameters follow the usual conventions; predictions are the mean over
    trees.  ``oob_score_`` (R² on out-of-bag samples) is computed when
    bootstrapping is enabled.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: object = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.trees_: List[DecisionTreeRegressor] = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        for t in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31)),
            )
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
                mask = np.ones(n, dtype=bool)
                mask[idx] = False
                if mask.any():
                    oob_sum[mask] += tree.predict(X[mask])
                    oob_count[mask] += 1
            else:
                tree.fit(X, y)
            self.trees_.append(tree)
        importances = np.mean([t.feature_importances_ for t in self.trees_], axis=0)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        if self.bootstrap and (oob_count > 0).sum() >= 2:
            covered = oob_count > 0
            oob_pred = oob_sum[covered] / oob_count[covered]
            ss_res = float(((y[covered] - oob_pred) ** 2).sum())
            ss_tot = float(((y[covered] - y[covered].mean()) ** 2).sum())
            self.oob_score_ = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        else:
            self.oob_score_ = None
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("trees_")
        X = check_X(X)
        return np.mean([tree.predict(X) for tree in self.trees_], axis=0)


class GradientBoostingRegressor(BaseEstimator):
    """Gradient boosting with squared loss and shallow CART base learners.

    Each stage fits a tree to the current residuals and is added with a
    shrinkage factor ``learning_rate``; optional ``subsample < 1`` gives
    stochastic gradient boosting.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: Optional[int] = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.init_ = float(y.mean())
        prediction = np.full(n, self.init_)
        self.trees_: List[DecisionTreeRegressor] = []
        self.train_score_: List[float] = []
        for t in range(self.n_estimators):
            residual = y - prediction
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31)),
            )
            if self.subsample < 1.0:
                k = max(2, int(round(self.subsample * n)))
                idx = rng.choice(n, size=k, replace=False)
                tree.fit(X[idx], residual[idx])
            else:
                tree.fit(X, residual)
            prediction = prediction + self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
            self.train_score_.append(float(np.mean((y - prediction) ** 2)))
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("trees_")
        X = check_X(X)
        out = np.full(X.shape[0], self.init_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out
