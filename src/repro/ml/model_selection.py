"""Model selection: splits, cross-validation and learning curves.

The paper evaluates every model with a **ten-fold stratified cross
validation** at a given **training size**, and characterizes each model with
a **learning curve** (R² of train and test folds versus training-set size).
For regression targets, stratification follows the standard recipe of
binning the continuous target into quantile bins and stratifying on the bin
label — FDR values cluster at 0 and 1, so this keeps every fold's label
distribution representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .base import BaseEstimator, check_X_y, clone
from .metrics import METRIC_FUNCTIONS, all_metrics

__all__ = [
    "train_test_split",
    "StratifiedRegressionKFold",
    "FoldScore",
    "CrossValidationResult",
    "cross_validate",
    "LearningCurveResult",
    "learning_curve",
]


def train_test_split(
    X,
    y,
    train_size: float = 0.5,
    random_state: Optional[int] = None,
    stratify_bins: int = 0,
):
    """Shuffled (optionally stratified) train/test split.

    Returns ``(X_train, X_test, y_train, y_test, idx_train, idx_test)`` —
    the indices let callers map predictions back to flip-flop names.
    """
    X, y = check_X_y(X, y)
    if not 0.0 < train_size < 1.0:
        raise ValueError("train_size must be in (0, 1)")
    rng = np.random.default_rng(random_state)
    n = X.shape[0]
    if stratify_bins > 1:
        bins = _quantile_bins(y, stratify_bins)
        train_idx: List[int] = []
        test_idx: List[int] = []
        for b in np.unique(bins):
            members = np.flatnonzero(bins == b)
            members = members[rng.permutation(len(members))]
            cut = int(round(train_size * len(members)))
            train_idx.extend(members[:cut])
            test_idx.extend(members[cut:])
        train = np.array(sorted(train_idx))
        test = np.array(sorted(test_idx))
    else:
        perm = rng.permutation(n)
        cut = int(round(train_size * n))
        train, test = np.sort(perm[:cut]), np.sort(perm[cut:])
    if len(train) == 0 or len(test) == 0:
        raise ValueError("split produced an empty side; adjust train_size")
    return X[train], X[test], y[train], y[test], train, test


def _quantile_bins(y: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin a continuous target into (at most) *n_bins* quantile bins."""
    quantiles = np.quantile(y, np.linspace(0, 1, n_bins + 1)[1:-1])
    return np.searchsorted(quantiles, y, side="right")


class StratifiedRegressionKFold:
    """K-fold stratified on quantile bins of the regression target.

    This is the "ten fold stratified cross validation" of the paper applied
    to a continuous label: samples are binned by target quantile and each
    bin is distributed round-robin over the folds.
    """

    def __init__(
        self,
        n_splits: int = 10,
        n_bins: int = 10,
        shuffle: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.n_bins = n_bins
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        bins = _quantile_bins(y, self.n_bins)
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(n, dtype=int)
        cursor = 0
        for b in np.unique(bins):
            members = np.flatnonzero(bins == b)
            if self.shuffle:
                members = members[rng.permutation(len(members))]
            for offset, sample in enumerate(members):
                fold_of[sample] = (cursor + offset) % self.n_splits
            cursor += len(members)
        for k in range(self.n_splits):
            test = np.flatnonzero(fold_of == k)
            train = np.flatnonzero(fold_of != k)
            yield train, test


@dataclass
class FoldScore:
    """Metrics of one CV fold, on its held-out test side."""

    fold: int
    test_metrics: Dict[str, float]


@dataclass
class CrossValidationResult:
    """Aggregated cross-validation outcome (means over folds)."""

    folds: List[FoldScore]

    def mean_test(self, metric: str) -> float:
        return float(np.mean([f.test_metrics[metric] for f in self.folds]))

    def std_test(self, metric: str) -> float:
        return float(np.std([f.test_metrics[metric] for f in self.folds]))

    def summary(self) -> Dict[str, float]:
        """Mean test metrics keyed mae/max/rmse/ev/r2."""
        return {m: self.mean_test(m) for m in METRIC_FUNCTIONS}


def cross_validate(
    estimator: BaseEstimator,
    X,
    y,
    cv: Optional[object] = None,
    train_size: Optional[float] = None,
    random_state: Optional[int] = None,
) -> CrossValidationResult:
    """Cross-validate with the paper's protocol.

    ``cv`` defaults to a 10-fold stratified splitter.  When *train_size* is
    given (the paper's Table I uses 50 %), each fold's *training* side is
    subsampled to ``train_size`` of the total dataset before fitting, while
    the fold's test side is evaluated in full — this is how a "training size
    of 50 %" coexists with 10-fold cross-validation.  Only the held-out
    side is scored; :func:`learning_curve` records train scores.
    """
    X, y = check_X_y(X, y)
    if cv is None:
        cv = StratifiedRegressionKFold(n_splits=10, random_state=random_state)
    rng = np.random.default_rng(random_state)
    folds: List[FoldScore] = []
    for fold_index, (train, test) in enumerate(cv.split(X, y)):
        if train_size is not None:
            target = int(round(train_size * X.shape[0]))
            target = max(2, min(target, len(train)))
            train = rng.choice(train, size=target, replace=False)
        model = clone(estimator)
        model.fit(X[train], y[train])
        folds.append(FoldScore(fold_index, all_metrics(y[test], model.predict(X[test]))))
    return CrossValidationResult(folds=folds)


@dataclass
class LearningCurveResult:
    """Learning-curve data: R² vs training size (paper Figs. 2b/3b/4b)."""

    train_sizes: List[float]
    train_scores: List[List[float]] = field(default_factory=list)
    test_scores: List[List[float]] = field(default_factory=list)

    def mean_train(self) -> List[float]:
        return [float(np.mean(s)) for s in self.train_scores]

    def mean_test(self) -> List[float]:
        return [float(np.mean(s)) for s in self.test_scores]

    def std_test(self) -> List[float]:
        return [float(np.std(s)) for s in self.test_scores]


def learning_curve(
    estimator: BaseEstimator,
    X,
    y,
    train_sizes: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    cv: Optional[object] = None,
    random_state: Optional[int] = None,
    metric: str = "r2",
) -> LearningCurveResult:
    """Model performance as a function of the data used for training.

    For every requested training size, each CV fold's training side is
    subsampled accordingly; the score (default R², as in the paper's
    figures) is recorded on both the subsampled train set and the fold's
    test set.
    """
    X, y = check_X_y(X, y)
    if cv is None:
        cv = StratifiedRegressionKFold(n_splits=10, random_state=random_state)
    score_fn = METRIC_FUNCTIONS[metric]
    splits = list(cv.split(X, y))
    result = LearningCurveResult(train_sizes=list(train_sizes))
    rng = np.random.default_rng(random_state)
    for size in train_sizes:
        train_scores: List[float] = []
        test_scores: List[float] = []
        for train, test in splits:
            target = int(round(size * X.shape[0]))
            target = max(2, min(target, len(train)))
            subset = rng.choice(train, size=target, replace=False)
            model = clone(estimator)
            model.fit(X[subset], y[subset])
            train_scores.append(score_fn(y[subset], model.predict(X[subset])))
            test_scores.append(score_fn(y[test], model.predict(X[test])))
        result.train_scores.append(train_scores)
        result.test_scores.append(test_scores)
    return result
