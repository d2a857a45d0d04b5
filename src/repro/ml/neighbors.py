"""k-Nearest Neighbors regression.

The paper's second model: "a weighted average of the k nearest neighbors is
used to predict the value, where the weight is calculated by the inverse of
the distances and the distance itself can be any metric measure, such as the
Manhattan or Euclidean distance".  The paper's tuned hyperparameters are
``k = 3`` with the Manhattan distance.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X, check_X_y

__all__ = ["KNeighborsRegressor"]

_METRICS = ("manhattan", "euclidean", "minkowski", "chebyshev")

#: Query rows per block of the distance computation.  A block's difference
#: tensor is ``_QUERY_BLOCK x n_train x n_features`` floats (6.5 MB for the
#: paper-scale 506 x 25 training side), never the whole query set's.
_QUERY_BLOCK = 64


class KNeighborsRegressor(BaseEstimator):
    """Distance-weighted k-NN regressor (brute-force, vectorized).

    Parameters
    ----------
    n_neighbors:
        Number of neighbours *k*.
    metric:
        ``"manhattan"``, ``"euclidean"``, ``"chebyshev"`` or
        ``"minkowski"`` (with exponent *p*).
    weights:
        ``"distance"`` — inverse-distance weighting as in the paper (an
        exact feature match predicts that sample's value); or
        ``"uniform"`` — plain average.
    """

    def __init__(
        self,
        n_neighbors: int = 3,
        metric: str = "manhattan",
        weights: str = "distance",
        p: float = 2.0,
    ) -> None:
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.weights = weights
        self.p = p

    def fit(self, X, y) -> "KNeighborsRegressor":
        X, y = check_X_y(X, y)
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; choose from {_METRICS}")
        if self.weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds training size {X.shape[0]}"
            )
        self.X_ = X
        self.y_ = y
        return self

    def _distances(self, X: np.ndarray) -> np.ndarray:
        """Pairwise distances query x train, shape (n_query, n_train).

        Computed in blocks of ``_QUERY_BLOCK`` query rows; each distance is
        reduced over the same contiguous feature axis as an unblocked
        computation would, so the values are identical.
        """
        distances = np.empty((X.shape[0], self.X_.shape[0]))
        for start in range(0, X.shape[0], _QUERY_BLOCK):
            block = X[start : start + _QUERY_BLOCK, None, :] - self.X_[None, :, :]
            np.abs(block, out=block)
            out = distances[start : start + _QUERY_BLOCK]
            if self.metric == "manhattan":
                block.sum(axis=2, out=out)
            elif self.metric == "chebyshev":
                block.max(axis=2, out=out)
            elif self.metric == "euclidean":
                np.square(block, out=block)
                np.sqrt(block.sum(axis=2, out=out), out=out)
            else:
                block **= self.p
                block.sum(axis=2, out=out)
                out **= 1.0 / self.p
        return distances

    def kneighbors(self, X) -> tuple:
        """Indices and distances of the k nearest training samples."""
        self._check_fitted("X_")
        X = check_X(X)
        distances = self._distances(X)
        k = self.n_neighbors
        idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
        row = np.arange(X.shape[0])[:, None]
        d = distances[row, idx]
        order = np.argsort(d, axis=1)
        return idx[row, order], d[row, order]

    def predict(self, X) -> np.ndarray:
        self._check_fitted("X_")
        idx, dist = self.kneighbors(X)
        neighbor_y = self.y_[idx]
        if self.weights == "uniform":
            return neighbor_y.mean(axis=1)
        # Exact matches dominate (infinite weight): such a row predicts the
        # mean of its exact neighbours, which sort first.  Rows are grouped
        # by that count so each mean sums exactly the exact neighbours.
        n_exact = (dist == 0.0).sum(axis=1)
        inexact = n_exact == 0
        predictions = np.empty(idx.shape[0])
        w = 1.0 / dist[inexact]
        predictions[inexact] = (w * neighbor_y[inexact]).sum(axis=1) / w.sum(axis=1)
        for count in np.unique(n_exact[~inexact]):
            rows = n_exact == count
            predictions[rows] = neighbor_y[rows, :count].sum(axis=1) / count
        return predictions
