"""Model-selection tests: splits, CV, learning curves, search, pipeline."""

import numpy as np
import pytest

from repro.ml import (
    Choice,
    GridSearchCV,
    KNeighborsRegressor,
    LinearLeastSquares,
    LogUniform,
    ParameterGrid,
    ParameterSampler,
    Pipeline,
    RandomizedSearchCV,
    RidgeRegression,
    StandardScaler,
    StratifiedRegressionKFold,
    Uniform,
    cross_validate,
    learning_curve,
    make_pipeline,
    random_then_grid_search,
    train_test_split,
)


# ----------------------------------------------------------------- splits


def test_train_test_split_shapes(regression_data):
    X, y = regression_data
    X_tr, X_te, y_tr, y_te, idx_tr, idx_te = train_test_split(X, y, 0.5, random_state=0)
    assert len(X_tr) + len(X_te) == len(X)
    assert set(idx_tr) | set(idx_te) == set(range(len(X)))
    assert set(idx_tr).isdisjoint(idx_te)
    assert np.allclose(X[idx_tr], X_tr)


def test_train_test_split_stratified_balances_quantiles(regression_data):
    X, y = regression_data
    *_, idx_tr, idx_te = train_test_split(X, y, 0.5, random_state=0, stratify_bins=4)
    assert abs(np.median(y[idx_tr]) - np.median(y[idx_te])) < 0.4


def test_train_test_split_validation(regression_data):
    X, y = regression_data
    with pytest.raises(ValueError):
        train_test_split(X, y, 0.0)
    with pytest.raises(ValueError):
        train_test_split(X, y, 1.0)


def test_stratified_kfold_covers_everything(regression_data):
    X, y = regression_data
    skf = StratifiedRegressionKFold(n_splits=10, random_state=0)
    seen = []
    for train, test in skf.split(X, y):
        seen.extend(test)
        # Each fold's test set sees both low and high targets.
        assert y[test].min() < np.median(y) < y[test].max()
    assert sorted(seen) == list(range(len(X)))


def test_stratified_kfold_with_clustered_labels():
    """FDR-like labels clustered at 0: every fold must get some zeros."""
    y = np.concatenate([np.zeros(60), np.random.default_rng(0).uniform(0.3, 1.0, 40)])
    X = np.arange(100, dtype=float).reshape(-1, 1)
    skf = StratifiedRegressionKFold(n_splits=5, random_state=0)
    for _train, test in skf.split(X, y):
        assert (y[test] == 0).any()
        assert (y[test] > 0).any()


# --------------------------------------------------------------------- CV


def test_cross_validate_summary(regression_data):
    X, y = regression_data
    result = cross_validate(RidgeRegression(0.1), X, y, random_state=0)
    assert len(result.folds) == 10
    summary = result.summary()
    assert set(summary) == {"mae", "max", "rmse", "ev", "r2"}
    assert result.std_test("r2") >= 0


def test_cross_validate_train_size_subsamples(regression_data):
    X, y = regression_data
    result = cross_validate(
        LinearLeastSquares(), X, y, train_size=0.25, random_state=0
    )
    # Each fold trained on ~25 % of all data.
    assert len(result.folds) == 10


def test_learning_curve_shapes_and_trend(regression_data):
    X, y = regression_data
    curve = learning_curve(
        KNeighborsRegressor(3),
        X,
        y,
        train_sizes=[0.1, 0.4, 0.8],
        cv=StratifiedRegressionKFold(5, random_state=0),
        random_state=0,
    )
    assert len(curve.mean_test()) == 3
    assert len(curve.std_test()) == 3
    # More data should not hurt much: final test score >= first - tolerance.
    assert curve.mean_test()[-1] >= curve.mean_test()[0] - 0.1


# ----------------------------------------------------------------- search


def test_parameter_grid():
    grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
    combos = list(grid)
    assert len(combos) == len(grid) == 6
    assert {"a": 1, "b": "x"} in combos


def test_parameter_sampler_deterministic():
    dists = {"c": LogUniform(0.1, 10), "k": Choice((1, 2, 3)), "u": Uniform(0, 1)}
    a = list(ParameterSampler(dists, 5, random_state=1))
    b = list(ParameterSampler(dists, 5, random_state=1))
    assert a == b
    for params in a:
        assert 0.1 <= params["c"] <= 10
        assert params["k"] in (1, 2, 3)


def test_grid_search_finds_best_alpha(regression_data):
    X, y = regression_data
    search = GridSearchCV(
        RidgeRegression(),
        {"alpha": [1e-6, 1.0, 1e6]},
        cv=StratifiedRegressionKFold(4, random_state=0),
        random_state=0,
    )
    result = search.fit(X, y)
    assert result.best_params["alpha"] in (1e-6, 1.0)
    assert len(result.history) == 3
    assert result.top(2)[0][1] >= result.top(2)[1][1]


def test_randomized_search(regression_data):
    X, y = regression_data
    search = RandomizedSearchCV(
        RidgeRegression(),
        {"alpha": LogUniform(1e-6, 1e3)},
        n_iter=4,
        cv=StratifiedRegressionKFold(3, random_state=0),
        random_state=0,
    )
    result = search.fit(X, y)
    assert len(result.history) == 4


def test_random_then_grid_refines(regression_data):
    X, y = regression_data
    result = random_then_grid_search(
        RidgeRegression(),
        {"alpha": LogUniform(1e-4, 1e2)},
        X,
        y,
        n_random=4,
        cv=StratifiedRegressionKFold(3, random_state=0),
        random_state=0,
    )
    assert "alpha" in result.best_params
    # history contains both stages
    assert len(result.history) > 4


# --------------------------------------------------------------- pipeline


def test_pipeline_fit_predict(regression_data):
    X, y = regression_data
    pipe = Pipeline([("scaler", StandardScaler()), ("knn", KNeighborsRegressor(3))])
    pipe.fit(X, y)
    assert pipe.predict(X).shape == y.shape
    assert pipe.final_estimator_ is not pipe.steps[1][1]  # fitted clone


def test_pipeline_no_leakage(regression_data):
    """Scaler statistics come from training data only."""
    X, y = regression_data
    pipe = Pipeline([("scaler", StandardScaler()), ("lls", LinearLeastSquares())])
    pipe.fit(X[:100], y[:100])
    fitted_scaler = pipe.fitted_steps_[0][1]
    assert np.allclose(fitted_scaler.mean_, X[:100].mean(axis=0))


def test_pipeline_nested_params(regression_data):
    pipe = Pipeline([("scaler", StandardScaler()), ("knn", KNeighborsRegressor(3))])
    pipe.set_params(knn__n_neighbors=7)
    assert pipe.steps[1][1].n_neighbors == 7
    params = pipe.get_params()
    assert params["knn__n_neighbors"] == 7
    with pytest.raises(ValueError):
        pipe.set_params(nope=1)
    with pytest.raises(ValueError):
        pipe.set_params(ghost__x=1)


def test_pipeline_clone_is_independent(regression_data):
    from repro.ml import clone

    pipe = Pipeline([("scaler", StandardScaler()), ("knn", KNeighborsRegressor(3))])
    copy = clone(pipe)
    copy.set_params(knn__n_neighbors=9)
    assert pipe.steps[1][1].n_neighbors == 3  # original untouched


def test_pipeline_validation():
    with pytest.raises(ValueError):
        Pipeline([]).fit(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(TypeError):
        Pipeline([("a", LinearLeastSquares()), ("b", LinearLeastSquares())]).fit(
            np.zeros((2, 1)), np.zeros(2)
        )


def test_make_pipeline_names(regression_data):
    pipe = make_pipeline(StandardScaler(), KNeighborsRegressor(2))
    names = [name for name, _ in pipe.steps]
    assert names == ["standardscaler", "kneighborsregressor"]
