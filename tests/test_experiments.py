"""Experiment-runner tests (reduced protocol on the tiny dataset)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    CV_FOLDS,
    FIGURE_MODELS,
    PAPER_TABLE1,
    future_work_models,
    paper_models,
    run_ablation,
    run_figure,
    run_future_work,
    run_table1,
    run_tuning,
)
from repro.experiments.__main__ import main as cli_main


def test_paper_models_have_paper_hyperparameters():
    models = paper_models()
    assert set(models) == set(PAPER_TABLE1)
    knn = models["k-NN"].steps[1][1]
    assert knn.n_neighbors == 3 and knn.metric == "manhattan"
    svr = models["SVR w/ RBF Kernel"].steps[1][1]
    assert (svr.C, svr.gamma, svr.epsilon) == (3.5, 0.055, 0.025)


def test_future_work_models_cover_paper_list():
    models = future_work_models()
    assert {"Decision Tree", "Random Forest", "Gradient Boosting", "MLP"} == set(models)


def test_table1_reduced(tiny_dataset):
    result = run_table1(tiny_dataset, cv_folds=4, seed=0)
    assert set(result.rows) == set(PAPER_TABLE1)
    for metrics in result.rows.values():
        assert set(metrics) == {"mae", "max", "rmse", "ev", "r2"}
        assert metrics["mae"] <= metrics["rmse"] <= metrics["max"] + 1e-9
    # The paper's qualitative result on our substrate.
    assert result.shape_holds()
    text = result.as_text()
    assert "measured" in text and "paper reference" in text


def test_table1_svr_folds_converge(tiny_dataset, monkeypatch):
    """Every SVR fit of the full Table I protocol stops on the KKT
    tolerance, not on max_iter."""
    from repro.ml.svr import SVR

    fitted = []
    fit = SVR.fit

    def recording_fit(self, X, y):
        fitted.append(fit(self, X, y))
        return fitted[-1]

    monkeypatch.setattr(SVR, "fit", recording_fit)
    run_table1(tiny_dataset, seed=0)
    assert len(fitted) == CV_FOLDS
    assert all(model.converged_ for model in fitted)
    # 454-1,039 iterations per fold (the count moves with the BLAS's
    # rounding of K); the first-order pair selection took 5,082-19,389.
    assert all(model.n_iter_ < 2000 for model in fitted)


def test_table1_rows_are_pinned(tiny_dataset):
    """Held-out R² of the full Table I protocol.  LLS and k-NN are exact.
    SVR is held to the optimum its KKT tolerance allows: 0.6129477 is the
    fit at tol 1e-8 (the first-order solver at the default tol gave
    0.6130483, 1.0e-4 from it)."""
    rows = run_table1(tiny_dataset, seed=0).rows
    assert rows["Linear Least Squares"]["r2"] == 0.205866004818101
    assert rows["k-NN"]["r2"] == 0.6752299567781812
    assert abs(rows["SVR w/ RBF Kernel"]["r2"] - 0.6129477) < 1e-4


def test_figures_reduced(tiny_dataset):
    for figure in FIGURE_MODELS:
        result = run_figure(
            tiny_dataset,
            figure,
            cv_folds=4,
            curve_sizes=[0.2, 0.5],
            seed=0,
        )
        assert result.test_true.shape == result.test_pred.shape
        assert result.curve is not None
        assert len(result.curve.mean_test()) == 2
        # Learning curves flatten: the largest training share is not much
        # worse than the best one.
        assert result.curve.mean_test()[-1] >= max(result.curve.mean_test()) - 0.25
        assert "learning curve" in result.as_text()
        csv_a = result.prediction_csv()
        assert csv_a.startswith("train_true,train_pred,test_true,test_pred")
        csv_b = result.curve_csv()
        assert "train_size" in csv_b


def test_figure_errors_are_pred_minus_true(tiny_dataset):
    result = run_figure(tiny_dataset, "fig3", cv_folds=4, with_curve=False, seed=0)
    assert np.allclose(result.test_error, result.test_pred - result.test_true)


def test_unknown_figure_rejected(tiny_dataset):
    with pytest.raises(KeyError):
        run_figure(tiny_dataset, "fig9")


def test_future_work_reduced(tiny_dataset):
    result = run_future_work(tiny_dataset, cv_folds=3, seed=0)
    assert set(result.rows) >= set(future_work_models())
    assert result.best_model() in result.rows
    # Nonlinear ensembles stay competitive with the k-NN baseline.
    assert result.rows[result.best_model()]["r2"] > 0.3
    assert "Future-work" in result.as_text()


def test_ablation_reduced(tiny_dataset):
    result = run_ablation(tiny_dataset, model_names=["k-NN"], cv_folds=3, seed=0)
    assert "all" in result.rows
    assert "only structural" in result.rows
    assert "without dynamic" in result.rows
    # The full feature set should not be dramatically worse than any single
    # group for k-NN.
    best_single = max(
        result.rows[f"only {g}"]["k-NN"] for g in ("structural", "synthesis", "dynamic")
    )
    assert result.rows["all"]["k-NN"] > best_single - 0.3
    assert "ablation" in result.as_text().lower()


def test_ablation_requires_groups(tiny_dataset):
    stripped = tiny_dataset.select_features(tiny_dataset.feature_names[:3])
    stripped.groups = {}
    with pytest.raises(ValueError):
        run_ablation(stripped)


def test_tuning_reduced(tiny_dataset):
    result = run_tuning(tiny_dataset, n_random=2, cv_folds=3, seed=0)
    assert "k-NN" in result.best_params
    assert "SVR w/ RBF Kernel" in result.best_params
    assert result.best_scores["k-NN"] > 0
    assert "Hyperparameter" in result.as_text()


def test_cli_runs_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "results"
    code = cli_main(["table1", "--scale", "tiny", "--out", str(out), "--seed", "0"])
    assert code == 0
    payload = json.loads((out / "table1.json").read_text())
    assert "k-NN" in payload


def test_cli_all_builds_each_circuit_once(tmp_path):
    """``all`` generates the dataset and then runs every experiment in one
    process: each circuit is synthesized and its golden trace recorded
    once, however many experiments replay it."""
    from collections import Counter

    from repro.campaigns import release_warm_cache

    release_warm_cache()  # no family left warm by an earlier test
    metrics = tmp_path / "metrics.jsonl"
    code = cli_main(
        [
            "all",
            "--scale",
            "tiny",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--metrics-out",
            str(metrics),
        ]
    )
    assert code == 0
    spans = Counter()
    for line in metrics.read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "span_begin" and event["name"] in (
            "synthesize",
            "golden_trace",
        ):
            spans[event["name"], event["attrs"]["circuit"]] += 1
    circuits = {circuit for _name, circuit in spans}
    assert circuits
    assert spans == Counter(
        {(name, c): 1 for name in ("synthesize", "golden_trace") for c in circuits}
    )


def test_cli_verify_command(tmp_path, capsys):
    out = tmp_path / "results"
    code = cli_main(["verify", "--seeds", "2", "--scale", "tiny", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "all engines agree with the oracle" in captured
    payload = json.loads((out / "verify.json").read_text())
    assert payload["n_seeds"] == 2
    assert payload["failing_seeds"] == []
    assert payload["n_comparisons"] > 0
    assert payload["n_generated_checked"] == 64
    assert payload["n_hold_run_checked"] == 170_084
    assert "n_merged" in payload
    assert "n_nonrelevant" in payload


def test_cli_verify_reports_divergence(tmp_path, capsys, monkeypatch):
    """A corrupted template makes the CLI exit non-zero and name the seed."""
    import repro.sim.compiled as compiled_mod
    from repro.verify import FUZZ_SCALES, generate_netlist, rebuild_netlist

    # Find a tiny-scale seed whose output cone actually uses NAND2.
    spec = FUZZ_SCALES["tiny"]
    seed = next(
        s for s in range(100)
        if any(
            c.ctype.name == "NAND2"
            for c in rebuild_netlist(generate_netlist(spec.with_seed(s))).iter_cells()
        )
    )
    monkeypatch.setitem(
        compiled_mod._TEMPLATES, "NAND2", "v[{o}] = (v[{i0}] & v[{i1}]) & m"
    )
    code = cli_main(
        ["verify", "--seeds", "1", "--seed", str(seed), "--scale", "tiny"]
    )
    assert code == 1
    captured = capsys.readouterr().out
    assert "DIVERGENCE" in captured
    assert f"--seed {seed}" in captured


def test_cli_rejects_bad_seeds():
    with pytest.raises(SystemExit):
        cli_main(["verify", "--seeds", "0"])
