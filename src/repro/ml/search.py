"""Hyperparameter search: random search followed by grid refinement.

The paper's protocol: "first evaluate the model with randomly selected
values for these parameters in a given distribution (random search).
Afterwards a more detailed grid search is performed within the region of the
values obtained by the random search" (citing Bergstra & Bengio).
:func:`random_then_grid_search` packages exactly that two-stage recipe.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .base import BaseEstimator, clone
from .model_selection import StratifiedRegressionKFold, cross_validate

__all__ = [
    "ParameterGrid",
    "ParameterSampler",
    "LogUniform",
    "Uniform",
    "Choice",
    "SearchResult",
    "GridSearchCV",
    "RandomizedSearchCV",
    "random_then_grid_search",
]


class ParameterGrid:
    """Cartesian product of discrete parameter values."""

    def __init__(self, grid: Dict[str, Sequence[Any]]) -> None:
        self.grid = {k: list(v) for k, v in grid.items()}

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        keys = sorted(self.grid)
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))

    def __len__(self) -> int:
        return int(np.prod([len(v) for v in self.grid.values()])) if self.grid else 0


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform distribution over [low, high]."""

    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogUniform:
    """Log-uniform distribution over [low, high] (both positive)."""

    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        return math.exp(rng.uniform(math.log(self.low), math.log(self.high)))


@dataclass(frozen=True)
class Choice:
    """Uniform choice over a discrete set."""

    options: Tuple[Any, ...]

    def sample(self, rng: random.Random) -> Any:
        return rng.choice(self.options)


class ParameterSampler:
    """Draw random parameter dicts from per-parameter distributions."""

    def __init__(self, distributions: Dict[str, Any], n_iter: int, random_state: Optional[int] = None):
        self.distributions = distributions
        self.n_iter = n_iter
        self.random_state = random_state

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        rng = random.Random(self.random_state)
        for _ in range(self.n_iter):
            params: Dict[str, Any] = {}
            for name, dist in sorted(self.distributions.items()):
                if hasattr(dist, "sample"):
                    params[name] = dist.sample(rng)
                else:
                    params[name] = rng.choice(list(dist))
            yield params


@dataclass
class SearchResult:
    """Outcome of a hyperparameter search."""

    best_params: Dict[str, Any]
    best_score: float
    history: List[Tuple[Dict[str, Any], float]] = field(default_factory=list)

    def top(self, k: int = 5) -> List[Tuple[Dict[str, Any], float]]:
        return sorted(self.history, key=lambda item: -item[1])[:k]


class _BaseSearchCV:
    """Shared evaluate-candidates machinery."""

    def __init__(
        self,
        estimator: BaseEstimator,
        cv: Optional[object] = None,
        metric: str = "r2",
        train_size: Optional[float] = None,
        random_state: Optional[int] = None,
    ) -> None:
        self.estimator = estimator
        self.cv = cv
        self.metric = metric
        self.train_size = train_size
        self.random_state = random_state

    def _candidates(self) -> Iterator[Dict[str, Any]]:
        raise NotImplementedError

    def fit(self, X, y) -> "SearchResult":
        cv = self.cv if self.cv is not None else StratifiedRegressionKFold(
            n_splits=5, random_state=self.random_state
        )
        history: List[Tuple[Dict[str, Any], float]] = []
        best_params: Optional[Dict[str, Any]] = None
        best_score = -np.inf
        for params in self._candidates():
            model = clone(self.estimator).set_params(**params)
            outcome = cross_validate(
                model,
                X,
                y,
                cv=cv,
                train_size=self.train_size,
                random_state=self.random_state,
            )
            score = outcome.mean_test(self.metric)
            history.append((params, score))
            if score > best_score:
                best_score = score
                best_params = params
        if best_params is None:
            raise ValueError("no candidates evaluated")
        self.result_ = SearchResult(best_params=best_params, best_score=best_score, history=history)
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        return self.result_


class GridSearchCV(_BaseSearchCV):
    """Exhaustive search over a discrete parameter grid."""

    def __init__(self, estimator: BaseEstimator, param_grid: Dict[str, Sequence[Any]], **kwargs):
        super().__init__(estimator, **kwargs)
        self.param_grid = param_grid

    def _candidates(self) -> Iterator[Dict[str, Any]]:
        return iter(ParameterGrid(self.param_grid))


class RandomizedSearchCV(_BaseSearchCV):
    """Random search over parameter distributions."""

    def __init__(
        self,
        estimator: BaseEstimator,
        param_distributions: Dict[str, Any],
        n_iter: int = 20,
        **kwargs,
    ):
        super().__init__(estimator, **kwargs)
        self.param_distributions = param_distributions
        self.n_iter = n_iter

    def _candidates(self) -> Iterator[Dict[str, Any]]:
        return iter(
            ParameterSampler(self.param_distributions, self.n_iter, random_state=self.random_state)
        )


def _refinement_grid(value: Any, span: float = 0.5, points: int = 3) -> List[Any]:
    """Local grid around a numeric value found by random search."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return [value]
    if isinstance(value, int):
        deltas = sorted({max(1, abs(int(round(value * span)))), 1})
        candidates = {value}
        for d in deltas:
            candidates.update({value - d, value + d})
        return sorted(v for v in candidates if v >= 1)
    low = value * (1 - span)
    high = value * (1 + span)
    return list(np.linspace(low, high, points))


def random_then_grid_search(
    estimator: BaseEstimator,
    param_distributions: Dict[str, Any],
    X,
    y,
    n_random: int = 20,
    cv: Optional[object] = None,
    metric: str = "r2",
    train_size: Optional[float] = None,
    random_state: Optional[int] = None,
) -> SearchResult:
    """The paper's two-stage tuning: random search, then a local grid.

    Stage 1 samples *n_random* configurations from the distributions;
    stage 2 builds a small grid around each numeric parameter of the best
    configuration and exhaustively evaluates it.
    """
    randomized = RandomizedSearchCV(
        estimator,
        param_distributions,
        n_iter=n_random,
        cv=cv,
        metric=metric,
        train_size=train_size,
        random_state=random_state,
    )
    stage1 = randomized.fit(X, y)
    grid = {name: _refinement_grid(value) for name, value in stage1.best_params.items()}
    grid_search = GridSearchCV(
        estimator,
        grid,
        cv=cv,
        metric=metric,
        train_size=train_size,
        random_state=random_state,
    )
    stage2 = grid_search.fit(X, y)
    history = stage1.history + stage2.history
    if stage2.best_score >= stage1.best_score:
        return SearchResult(stage2.best_params, stage2.best_score, history)
    return SearchResult(stage1.best_params, stage1.best_score, history)
