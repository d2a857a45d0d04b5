"""From-scratch ML library: the paper's models, metrics and model selection.

Replaces the scikit-learn dependency of the original work with numpy
implementations of every estimator and utility the paper uses (Linear Least
Squares, k-NN, ε-SVR with RBF kernel, stratified k-fold CV, random + grid
search, learning curves, MAE/MAX/RMSE/EV/R²) plus the future-work models
(decision tree, random forest, gradient boosting, MLP).
"""

from .base import BaseEstimator, check_X, check_X_y, clone
from .ensemble import GradientBoostingRegressor, RandomForestRegressor
from .kernels import get_kernel, linear_kernel, polynomial_kernel, rbf_kernel
from .linear import LinearLeastSquares, RidgeRegression
from .metrics import (
    METRIC_FUNCTIONS,
    all_metrics,
    explained_variance,
    max_absolute_error,
    mean_absolute_error,
    r2_score,
    root_mean_squared_error,
)
from .mlp import MLPRegressor
from .model_selection import (
    CrossValidationResult,
    FoldScore,
    LearningCurveResult,
    StratifiedRegressionKFold,
    cross_validate,
    learning_curve,
    train_test_split,
)
from .neighbors import KNeighborsRegressor
from .pipeline import Pipeline, make_pipeline
from .preprocessing import MinMaxScaler, StandardScaler
from .search import (
    Choice,
    GridSearchCV,
    LogUniform,
    ParameterGrid,
    ParameterSampler,
    RandomizedSearchCV,
    SearchResult,
    Uniform,
    random_then_grid_search,
)
from .svr import SVR
from .tree import DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "check_X",
    "check_X_y",
    "clone",
    "GradientBoostingRegressor",
    "RandomForestRegressor",
    "get_kernel",
    "linear_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "LinearLeastSquares",
    "RidgeRegression",
    "METRIC_FUNCTIONS",
    "all_metrics",
    "explained_variance",
    "max_absolute_error",
    "mean_absolute_error",
    "r2_score",
    "root_mean_squared_error",
    "MLPRegressor",
    "CrossValidationResult",
    "FoldScore",
    "LearningCurveResult",
    "StratifiedRegressionKFold",
    "cross_validate",
    "learning_curve",
    "train_test_split",
    "KNeighborsRegressor",
    "Pipeline",
    "make_pipeline",
    "MinMaxScaler",
    "StandardScaler",
    "Choice",
    "GridSearchCV",
    "LogUniform",
    "ParameterGrid",
    "ParameterSampler",
    "RandomizedSearchCV",
    "SearchResult",
    "Uniform",
    "random_then_grid_search",
    "SVR",
    "DecisionTreeRegressor",
]
