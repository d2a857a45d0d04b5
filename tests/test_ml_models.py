"""Nonlinear model tests: k-NN, SVR, trees, ensembles, MLP."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.ml import (
    SVR,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    KNeighborsRegressor,
    MLPRegressor,
    RandomForestRegressor,
    r2_score,
)
from repro.ml import neighbors


# ----------------------------------------------------------------- k-NN


def test_knn_exact_match_predicts_training_value():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    model = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
    assert model.predict(np.array([[1.0, 1.0]]))[0] == 20.0


def test_knn_uniform_average():
    X = np.array([[0.0], [1.0], [10.0]])
    y = np.array([0.0, 1.0, 100.0])
    model = KNeighborsRegressor(n_neighbors=2, weights="uniform").fit(X, y)
    assert model.predict(np.array([[0.4]]))[0] == pytest.approx(0.5)


def test_knn_k1_is_nearest_value():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = KNeighborsRegressor(n_neighbors=1).fit(X, y)
    assert np.allclose(model.predict(X), y)


def test_knn_metrics_differ():
    X = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 2.0]])
    y = np.array([1.0, 2.0, 3.0])
    query = np.array([[2.5, 0.5]])
    # manhattan: d=[3.0, 1.0, 2.0] -> nearest is row 1
    man = KNeighborsRegressor(1, metric="manhattan").fit(X, y)
    assert man.predict(query)[0] == 2.0
    # chebyshev: d=[2.5, 0.5, 1.5] -> row 1 as well; euclidean row 1 too;
    # check minkowski p=1 equals manhattan
    mink = KNeighborsRegressor(1, metric="minkowski", p=1.0).fit(X, y)
    assert mink.predict(query)[0] == man.predict(query)[0]


def test_knn_kneighbors_sorted():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.zeros(10)
    model = KNeighborsRegressor(3).fit(X, y)
    idx, dist = model.kneighbors(np.array([[4.2]]))
    assert list(idx[0]) == [4, 5, 3]
    assert np.all(np.diff(dist[0]) >= 0)


_BLOCK = neighbors._QUERY_BLOCK


def _unblocked_distances(Q, X, metric, p):
    """The distance formulas on the full query x train x feature tensor."""
    diff = Q[:, None, :] - X[None, :, :]
    if metric == "manhattan":
        return np.abs(diff).sum(axis=2)
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=2))
    if metric == "chebyshev":
        return np.abs(diff).max(axis=2)
    return (np.abs(diff) ** p).sum(axis=2) ** (1.0 / p)


@pytest.mark.parametrize("metric", ["manhattan", "euclidean", "chebyshev", "minkowski"])
@pytest.mark.parametrize("n_query", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK])
def test_knn_blocked_distances_equal_unblocked(metric, n_query):
    rng = np.random.default_rng(n_query)
    X = rng.normal(size=(90, 25))
    Q = rng.normal(size=(n_query, 25))
    model = KNeighborsRegressor(3, metric=metric, p=3.0).fit(X, rng.normal(size=90))
    assert np.array_equal(model._distances(Q), _unblocked_distances(Q, X, metric, 3.0))


def test_knn_duplicate_training_points_predict_without_warning():
    """Queries on duplicated training points hit zero distances: each row
    predicts the mean of its exact neighbours, with no division by zero."""
    X = np.repeat(np.arange(5.0)[:, None], 3, axis=0)
    y = np.arange(15.0)
    query = np.array([[0.0], [2.0], [2.25], [4.0], [9.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k3 = KNeighborsRegressor(3).fit(X, y).predict(query)
        k4 = KNeighborsRegressor(4).fit(X, y).predict(query)
    assert list(k3) == [1.0, 7.0, 7.0, 13.0, 13.0]
    assert k4[1] == 7.0  # the fourth neighbour is not an exact match: ignored


def _loop_predict(model, Q):
    """Inverse-distance weighting one query row at a time (the reference)."""
    idx, dist = model.kneighbors(Q)
    predictions = np.empty(len(Q))
    for i in range(len(Q)):
        d, neighbor_y = dist[i], model.y_[idx[i]]
        exact = d == 0.0
        if exact.any():
            predictions[i] = neighbor_y[exact].mean()
        else:
            w = 1.0 / d
            predictions[i] = float((w * neighbor_y).sum() / w.sum())
    return predictions


@pytest.mark.parametrize("k", [1, 3, 8, 12])
def test_knn_weighted_mean_equals_row_loop(k):
    """Bit-equal to the per-row loop, including rows with several exact
    matches of distinct labels (summed in the same order)."""
    rng = np.random.default_rng(k)
    X = np.repeat(rng.integers(0, 4, size=(12, 2)).astype(float), 7, axis=0)
    y = rng.normal(size=len(X))
    Q = np.vstack([X[::5], rng.normal(size=(40, 2))])
    model = KNeighborsRegressor(k).fit(X, y)
    assert np.array_equal(model.predict(Q), _loop_predict(model, Q))


def test_knn_validation():
    X = np.zeros((3, 2))
    y = np.zeros(3)
    with pytest.raises(ValueError):
        KNeighborsRegressor(0).fit(X, y)
    with pytest.raises(ValueError):
        KNeighborsRegressor(5).fit(X, y)
    with pytest.raises(ValueError):
        KNeighborsRegressor(metric="cosine").fit(X, y)
    with pytest.raises(ValueError):
        KNeighborsRegressor(weights="gaussian").fit(X, y)


# ------------------------------------------------------------------ SVR


def test_svr_fits_within_epsilon_tube(regression_data):
    X, y = regression_data
    model = SVR(C=10.0, epsilon=0.1, gamma=0.3).fit(X, y)
    residuals = np.abs(model.predict(X) - y)
    # Nearly all training residuals within the tube (+ small solver slack).
    assert float((residuals <= 0.1 + 0.05).mean()) > 0.9


def test_svr_sparsity():
    """Points inside the tube get zero dual coefficients."""
    rng = np.random.default_rng(0)
    X = np.sort(rng.uniform(-3, 3, size=(120, 1)), axis=0)
    y = np.sin(X[:, 0])
    model = SVR(C=5.0, epsilon=0.15, gamma=1.0).fit(X, y)
    assert len(model.support_) < 120
    assert np.all(np.abs(model.dual_coef_) <= model.C + 1e-9)


def test_svr_test_accuracy():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(250, 2))
    y = np.cos(X[:, 0]) * X[:, 1]
    model = SVR(C=10.0, epsilon=0.02, gamma=0.8).fit(X[:200], y[:200])
    assert r2_score(y[200:], model.predict(X[200:])) > 0.95


def test_svr_linear_kernel_recovers_line():
    X = np.linspace(0, 1, 40).reshape(-1, 1)
    y = 3.0 * X[:, 0] + 1.0
    model = SVR(kernel="linear", C=50.0, epsilon=0.01).fit(X, y)
    assert np.max(np.abs(model.predict(X) - y)) < 0.05


def test_svr_poly_kernel_runs():
    X = np.linspace(-1, 1, 50).reshape(-1, 1)
    y = X[:, 0] ** 2
    model = SVR(kernel="poly", degree=2, C=10.0, epsilon=0.01).fit(X, y)
    assert r2_score(y, model.predict(X)) > 0.9


def test_svr_epsilon_controls_flatness():
    """A huge epsilon makes everything in-tube: constant prediction."""
    X = np.linspace(0, 1, 30).reshape(-1, 1)
    y = np.sin(3 * X[:, 0])
    model = SVR(C=1.0, epsilon=10.0, gamma=1.0).fit(X, y)
    pred = model.predict(X)
    assert np.ptp(pred) < 1e-6


def _dyadic_problem():
    """Dyadic inputs: every kernel inner product is exact, whatever the BLAS
    summation order, so the pinned fits below do not depend on it."""
    rng = np.random.default_rng(11)
    X = rng.integers(-8, 9, size=(60, 3)) / 4.0
    y = X[:, 0] * X[:, 1] / 4.0 - X[:, 2] / 2.0 + rng.integers(-4, 5, size=60) / 32.0
    return X, y


# SHA-256 of (beta_, intercept_, n_iter_) for each fit, recorded with the
# second-order (LIBSVM) pair selection.
SVR_PINS = {
    "rbf": (
        dict(C=3.5, epsilon=0.025, gamma=0.055),
        "fc8bf367cde604c92e702baf4c988999aad9567ac65f5c3d66897ca139420b67",
    ),
    "linear": (
        dict(kernel="linear", C=1.0, epsilon=0.05),
        "b020f0f3a9326fd8bead99c47f04cd449d5edaa148f22c43cc011756097a0329",
    ),
    "poly": (
        dict(kernel="poly", degree=2, gamma=0.25, C=1.0, epsilon=0.05),
        "753808dd76ebe72e70f02dac701c30306524b99e8eea8f9817c3b8bf89dce6c6",
    ),
    "all_in_tube": (
        dict(C=1.0, epsilon=10.0, gamma=0.5),
        "490eb8c72258bfdaf01dd051dafb7e81170fdbc37aa7491064e863e5f7373cd4",
    ),
    "box_bound": (
        dict(C=0.01, epsilon=0.01, gamma=0.5),
        "df89e5120132d5c01efd59be5a9d507cbf1ac3edee161b30f0deab69ed5d8757",
    ),
}


@pytest.mark.parametrize("case", sorted(SVR_PINS))
def test_svr_fit_is_pinned(case):
    params, digest = SVR_PINS[case]
    X, y = _dyadic_problem()
    model = SVR(**params).fit(X, y)
    blob = (
        model.beta_.tobytes()
        + np.float64(model.intercept_).tobytes()
        + model.n_iter_.to_bytes(8, "little")
    )
    assert model.converged_
    assert hashlib.sha256(blob).hexdigest() == digest
    if case == "all_in_tube":
        assert model.n_iter_ == 1 and not model.beta_.any()
    if case == "box_bound":
        assert np.all(np.abs(model.beta_[model.beta_ != 0]) == params["C"])


def _register_problem():
    """506 x 25, shaped like one Table I training fold: the flip-flops of a
    register share their features, so rows come in near-duplicate clusters
    with scattered labels."""
    rng = np.random.default_rng(2019)
    prototypes = rng.normal(size=(60, 25))
    member = rng.integers(0, 60, size=506)
    X = prototypes[member] + rng.normal(0.0, 0.15, size=(506, 25))
    centre = 1.0 / (1.0 + np.exp(-2.0 * prototypes[:, :5] @ rng.normal(size=5)))
    y = np.clip(centre[member] + rng.normal(0.0, 0.1, 506), 0.0, 1.0)
    return X, y


def _gram(params, X):
    """The fit's kernel matrix, rebuilt from pairwise differences."""
    kernel = params.get("kernel", "rbf")
    if kernel == "rbf":
        return np.exp(-params["gamma"] * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1))
    if kernel == "linear":
        return X @ X.T
    return (params["gamma"] * (X @ X.T) + 1.0) ** params["degree"]


# n_iter_ of each fit under the first-order pair selection it replaced.
FIRST_ORDER_N_ITER = {
    "rbf": 1094,
    "linear": 835,
    "poly": 5091,
    "all_in_tube": 1,
    "box_bound": 30,
    "register": 18976,
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_N_ITER))
def test_svr_solution_satisfies_kkt(case):
    """The fit is an ε-SVR optimum: with r = y - Kβ - b, a free coefficient
    sits on the tube edge of its sign, a zero one inside the tube and a
    bounded one outside it, each up to the KKT tolerance."""
    if case == "register":
        params, (X, y) = dict(C=3.5, epsilon=0.025, gamma=0.055), _register_problem()
    else:
        params, (X, y) = SVR_PINS[case][0], _dyadic_problem()
    model = SVR(**params).fit(X, y)
    assert model.converged_
    assert model.n_iter_ <= FIRST_ORDER_N_ITER[case]
    if case in ("rbf", "linear", "poly", "register"):
        assert model.n_iter_ < FIRST_ORDER_N_ITER[case]
    beta, C, eps = model.beta_, params["C"], params["epsilon"]
    r = y - _gram(params, X) @ beta - model.intercept_
    slack = model.tol + 1e-9
    bounded = np.abs(beta) >= C - 1e-9
    free = (beta != 0) & ~bounded
    assert np.all(np.abs(r[free] - eps * np.sign(beta[free])) <= slack)
    assert np.all(np.abs(r[beta == 0]) <= eps + slack)
    assert np.all(r[bounded & (beta > 0)] >= eps - slack)
    assert np.all(r[bounded & (beta < 0)] <= -eps + slack)


def test_svr_reports_non_convergence():
    X, y = _dyadic_problem()
    stopped = SVR(C=3.5, epsilon=0.025, gamma=0.055, max_iter=5).fit(X, y)
    assert stopped.n_iter_ == 5 and not stopped.converged_
    full = SVR(C=3.5, epsilon=0.025, gamma=0.055).fit(X, y)
    # Allowing exactly the iterations convergence needs still converges: the
    # flag, not n_iter_ == max_iter, tells the two stops apart.
    exact = SVR(C=3.5, epsilon=0.025, gamma=0.055, max_iter=full.n_iter_).fit(X, y)
    assert exact.converged_ and exact.n_iter_ == full.n_iter_


def test_svr_validation():
    X, y = np.zeros((4, 1)), np.zeros(4)
    with pytest.raises(ValueError):
        SVR(C=0.0).fit(X, y)
    with pytest.raises(ValueError):
        SVR(epsilon=-1.0).fit(X, y)
    with pytest.raises(ValueError):
        SVR(kernel="mystery").fit(np.random.rand(4, 1), np.zeros(4))


# ----------------------------------------------------------------- tree


def test_tree_fits_piecewise_constant_exactly():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    tree = DecisionTreeRegressor().fit(X, y)
    assert np.allclose(tree.predict(X), y)
    assert tree.depth() == 1
    assert tree.n_leaves() == 2


def test_tree_max_depth_limits_growth(regression_data):
    X, y = regression_data
    shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
    deep = DecisionTreeRegressor(max_depth=10).fit(X, y)
    assert shallow.depth() <= 2
    assert deep.n_leaves() > shallow.n_leaves()
    # Deeper tree fits training data better.
    assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))


def test_tree_min_samples_leaf():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
    # With >= 10 samples per leaf, at most 6 leaves.
    assert tree.n_leaves() <= 6


def test_tree_predictions_within_target_range(regression_data):
    X, y = regression_data
    tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
    pred = tree.predict(X)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_tree_constant_target_single_leaf():
    X = np.random.rand(20, 3)
    y = np.full(20, 0.7)
    tree = DecisionTreeRegressor().fit(X, y)
    assert tree.n_leaves() == 1
    assert np.allclose(tree.predict(X), 0.7)


def test_tree_feature_importances(regression_data):
    X, y = regression_data
    tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
    importances = tree.feature_importances_
    assert importances.shape == (X.shape[1],)
    assert abs(importances.sum() - 1.0) < 1e-9 or importances.sum() == 0.0
    # x3 does not enter the target function; x0/x1 dominate.
    assert importances[0] + importances[1] > importances[3]


def test_tree_validation():
    X, y = np.zeros((4, 1)), np.zeros(4)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_split=1).fit(X, y)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0).fit(X, y)


# ------------------------------------------------------------- ensembles


def test_random_forest_beats_single_tree_oob(regression_data):
    X, y = regression_data
    forest = RandomForestRegressor(n_estimators=40, random_state=0).fit(X, y)
    assert forest.oob_score_ is not None
    assert forest.oob_score_ > 0.5
    assert forest.feature_importances_.shape == (X.shape[1],)


def test_random_forest_deterministic_with_seed(regression_data):
    X, y = regression_data
    a = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y).predict(X[:10])
    b = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y).predict(X[:10])
    assert np.allclose(a, b)


def test_gradient_boosting_training_loss_decreases(regression_data):
    X, y = regression_data
    gbr = GradientBoostingRegressor(n_estimators=50, random_state=0).fit(X, y)
    assert gbr.train_score_[-1] < gbr.train_score_[0]
    assert r2_score(y, gbr.predict(X)) > 0.9


def test_gradient_boosting_subsample(regression_data):
    X, y = regression_data
    gbr = GradientBoostingRegressor(n_estimators=30, subsample=0.5, random_state=0).fit(X, y)
    assert r2_score(y, gbr.predict(X)) > 0.7
    with pytest.raises(ValueError):
        GradientBoostingRegressor(subsample=0.0).fit(X, y)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(learning_rate=0.0).fit(X, y)


# ------------------------------------------------------------------ MLP


def test_mlp_learns_nonlinear_function(regression_data):
    X, y = regression_data
    mlp = MLPRegressor(hidden_layer_sizes=(32, 16), max_epochs=200, random_state=0)
    mlp.fit(X, y)
    assert r2_score(y, mlp.predict(X)) > 0.8
    assert mlp.n_epochs_ <= 200


def test_mlp_tanh_activation(regression_data):
    X, y = regression_data
    mlp = MLPRegressor(hidden_layer_sizes=(16,), activation="tanh", max_epochs=80, random_state=1)
    mlp.fit(X, y)
    assert np.all(np.isfinite(mlp.predict(X)))


def test_mlp_loss_curve_decreases(regression_data):
    X, y = regression_data
    mlp = MLPRegressor(hidden_layer_sizes=(16,), max_epochs=60, random_state=0, early_stopping=False)
    mlp.fit(X, y)
    assert mlp.loss_curve_[-1] < mlp.loss_curve_[0]


def test_mlp_deterministic_with_seed(regression_data):
    X, y = regression_data
    a = MLPRegressor(hidden_layer_sizes=(8,), max_epochs=20, random_state=3).fit(X, y).predict(X[:5])
    b = MLPRegressor(hidden_layer_sizes=(8,), max_epochs=20, random_state=3).fit(X, y).predict(X[:5])
    assert np.allclose(a, b)


def test_mlp_validation(regression_data):
    X, y = regression_data
    with pytest.raises(ValueError):
        MLPRegressor(activation="sigmoid").fit(X, y)
