"""ML base machinery, metrics and preprocessing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import (
    LinearLeastSquares,
    MinMaxScaler,
    RidgeRegression,
    StandardScaler,
    all_metrics,
    clone,
    explained_variance,
    max_absolute_error,
    mean_absolute_error,
    r2_score,
    root_mean_squared_error,
)
from repro.ml.base import check_X, check_X_y


# ----------------------------------------------------------------- base


def test_get_set_params():
    model = RidgeRegression(alpha=2.0)
    assert model.get_params() == {"alpha": 2.0, "fit_intercept": True}
    model.set_params(alpha=5.0)
    assert model.alpha == 5.0
    with pytest.raises(ValueError):
        model.set_params(bogus=1)


def test_clone_resets_fitted_state(regression_data):
    X, y = regression_data
    model = RidgeRegression(alpha=0.5).fit(X, y)
    copy = clone(model)
    assert copy.alpha == 0.5
    assert not hasattr(copy, "coef_")


def test_check_X_y_validation():
    with pytest.raises(ValueError):
        check_X(np.zeros(3))  # 1-D
    with pytest.raises(ValueError):
        check_X(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        check_X_y(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        check_X_y(np.zeros((3, 2)), np.zeros((3, 1)))


def test_unfitted_predict_raises(regression_data):
    X, _ = regression_data
    with pytest.raises(RuntimeError):
        LinearLeastSquares().predict(X)


# -------------------------------------------------------------- metrics


def test_metrics_perfect_prediction():
    y = np.array([0.1, 0.5, 0.9, 0.3])
    scores = all_metrics(y, y)
    assert scores["mae"] == 0.0
    assert scores["max"] == 0.0
    assert scores["rmse"] == 0.0
    assert scores["ev"] == 1.0
    assert scores["r2"] == 1.0


def test_metrics_known_values():
    y_true = np.array([0.0, 1.0])
    y_pred = np.array([0.5, 0.5])
    assert mean_absolute_error(y_true, y_pred) == 0.5
    assert max_absolute_error(y_true, y_pred) == 0.5
    assert root_mean_squared_error(y_true, y_pred) == 0.5
    assert r2_score(y_true, y_pred) == 0.0  # predicting the mean
    assert explained_variance(y_true, y_pred) == 0.0  # residuals vary fully
    # EV ignores a constant bias that R2 penalizes.
    biased = y_true + 0.5
    assert explained_variance(y_true, biased) == 1.0
    assert r2_score(y_true, biased) < 1.0


def test_constant_target_edge_cases():
    y = np.array([0.3, 0.3, 0.3])
    assert r2_score(y, y) == 1.0
    assert r2_score(y, y + 0.1) == 0.0
    assert explained_variance(y, y) == 1.0


@given(
    arrays(np.float64, 12, elements=st.floats(-5, 5)),
    arrays(np.float64, 12, elements=st.floats(-5, 5)),
)
@settings(max_examples=50, deadline=None)
def test_metric_invariants(y_true, y_pred):
    mae = mean_absolute_error(y_true, y_pred)
    mx = max_absolute_error(y_true, y_pred)
    rmse = root_mean_squared_error(y_true, y_pred)
    tol = 1e-12 + 1e-9 * mx  # one-ULP slack from the float mean
    assert 0 <= mae <= mx + tol
    assert mae <= rmse + tol
    assert rmse <= mx + tol
    assert r2_score(y_true, y_pred) <= explained_variance(y_true, y_pred) + 1e-9


def test_metric_shape_mismatch():
    with pytest.raises(ValueError):
        mean_absolute_error([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        r2_score([], [])


# --------------------------------------------------------- preprocessing


def test_standard_scaler(regression_data):
    X, _ = regression_data
    scaler = StandardScaler()
    Z = scaler.fit_transform(X)
    assert np.allclose(Z.mean(axis=0), 0, atol=1e-9)
    assert np.allclose(Z.std(axis=0), 1, atol=1e-9)
    assert np.allclose(scaler.inverse_transform(Z), X)


def test_standard_scaler_constant_column():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    Z = StandardScaler().fit_transform(X)
    assert np.all(np.isfinite(Z))
    assert np.allclose(Z[:, 0], 0.0)


def test_minmax_scaler():
    X = np.array([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]])
    scaler = MinMaxScaler()
    Z = scaler.fit_transform(X)
    assert Z.min() == 0.0 and Z.max() == 1.0
    assert np.allclose(scaler.inverse_transform(Z), X)
    with pytest.raises(ValueError):
        MinMaxScaler(feature_range=(1, 0)).fit(X)


@given(arrays(np.float64, (8, 3), elements=st.floats(-100, 100)))
@settings(max_examples=40, deadline=None)
def test_scaler_round_trip_property(X):
    scaler = StandardScaler().fit(X)
    assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6)


# --------------------------------------------------------------- linear


def test_lls_recovers_exact_linear_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    coef = np.array([2.0, -1.0, 0.5])
    y = X @ coef + 3.0
    model = LinearLeastSquares().fit(X, y)
    assert np.allclose(model.coef_, coef, atol=1e-8)
    assert model.intercept_ == pytest.approx(3.0, abs=1e-8)
    assert r2_score(y, model.predict(X)) == pytest.approx(1.0)


def test_lls_without_intercept():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = LinearLeastSquares(fit_intercept=False).fit(X, y)
    assert model.intercept_ == 0.0
    assert model.coef_[0] == pytest.approx(2.0)


def test_lls_handles_collinear_features():
    rng = np.random.default_rng(1)
    x = rng.normal(size=60)
    X = np.column_stack([x, x, 1 - x])  # exactly collinear
    y = 2 * x + 1
    model = LinearLeastSquares().fit(X, y)
    pred = model.predict(X)
    assert np.allclose(pred, y, atol=1e-8)


def test_ridge_shrinks_towards_zero(regression_data):
    X, y = regression_data
    small = RidgeRegression(alpha=1e-8).fit(X, y)
    large = RidgeRegression(alpha=1e6).fit(X, y)
    assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)
    with pytest.raises(ValueError):
        RidgeRegression(alpha=-1).fit(X, y)


def test_ridge_matches_lls_at_zero_alpha(regression_data):
    X, y = regression_data
    ridge = RidgeRegression(alpha=0.0).fit(X, y)
    lls = LinearLeastSquares().fit(X, y)
    assert np.allclose(ridge.predict(X), lls.predict(X), atol=1e-6)
