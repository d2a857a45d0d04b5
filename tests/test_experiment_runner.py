"""Unified experiment runner + cross-circuit transfer tests."""

import json

import numpy as np
import pytest

from repro.data import DATASET_PRESETS, circuit_preset, transfer_presets
from repro.experiments import (
    ExperimentContext,
    ExperimentRunner,
    ExperimentSpec,
    available_experiments,
    run_table1,
)
from repro.experiments.__main__ import main as cli_main

TRANSFER_CIRCUITS = ["counter16", "fifo4x4", "crc32", "lfsr16"]


def test_spec_make_is_hashable_and_sorted():
    a = ExperimentSpec.make("table1", scale="tiny", seed=1, foo=2, bar=[1, 2])
    b = ExperimentSpec.make("table1", scale="tiny", seed=1, bar=[1, 2], foo=2)
    assert a == b
    assert hash(a) == hash(b)
    assert a.option("bar") == (1, 2)
    assert a.option("missing", "x") == "x"
    # None-valued options are dropped (CLI passes unset args as None).
    assert ExperimentSpec.make("t", circuits=None).options == ()


def test_registry_covers_all_cli_experiments():
    from repro.experiments.__main__ import EXPERIMENTS

    assert set(EXPERIMENTS) <= set(available_experiments())


def test_runner_rejects_unknown_experiment(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    with pytest.raises(KeyError):
        runner.run(ExperimentSpec.make("fig9"))


def test_runner_rejects_context_plus_kwargs(tmp_path):
    with pytest.raises(ValueError):
        ExperimentRunner(context=ExperimentContext(cache_dir=tmp_path), jobs=2)


@pytest.fixture(scope="module")
def tiny_runner(tmp_path_factory):
    """One runner over a module-scoped cache (datasets generate once)."""
    cache = tmp_path_factory.mktemp("runner_cache")
    return ExperimentRunner(cache_dir=cache)


def test_runner_table1_matches_direct_call(tiny_runner):
    """The unified runner reproduces the direct script numbers exactly."""
    outcome = tiny_runner.run(ExperimentSpec.make("table1", scale="tiny", seed=0))
    direct = run_table1(tiny_runner.context.dataset(preset="tiny"), seed=0)
    assert outcome.result.rows == direct.rows
    assert "shape holds" in outcome.text
    assert json.loads(outcome.exports["table1.json"]) == direct.rows


def test_context_memoizes_datasets(tiny_runner):
    ctx = tiny_runner.context
    assert ctx.dataset(preset="tiny") is ctx.dataset(preset="tiny")
    assert ctx.dataset(spec=DATASET_PRESETS["tiny"]) is ctx.dataset(preset="tiny")


def test_context_requires_preset_or_spec(tmp_path):
    with pytest.raises(ValueError):
        ExperimentContext(cache_dir=tmp_path).dataset()


def test_outcome_write_exports(tiny_runner, tmp_path):
    outcome = tiny_runner.run(ExperimentSpec.make("table1", scale="tiny"))
    written = outcome.write_exports(tmp_path)
    assert (tmp_path / "table1.json").exists()
    assert written == [tmp_path / "table1.json"]


# ------------------------------------------------------------- transfer


@pytest.fixture(scope="module")
def transfer_outcome(tiny_runner):
    spec = ExperimentSpec.make(
        "transfer", scale="tiny", seed=0, circuits=TRANSFER_CIRCUITS
    )
    return tiny_runner.run(spec)


def test_transfer_presets_cover_library():
    from repro.circuits import LIBRARY_CIRCUITS

    presets = transfer_presets("tiny")
    assert set(presets) == set(LIBRARY_CIRCUITS)
    assert len(presets) >= 4
    for circuit, spec in presets.items():
        assert spec.circuit == circuit


def test_circuit_preset_reuses_mac_presets():
    assert circuit_preset("xgmac_tiny") == DATASET_PRESETS["tiny"]
    assert circuit_preset("counter16", "tiny").n_injections == 24
    with pytest.raises(KeyError):
        circuit_preset("counter16", "huge")


def test_transfer_matrix_complete(transfer_outcome):
    result = transfer_outcome.result
    assert result.circuits == TRANSFER_CIRCUITS
    for a in TRANSFER_CIRCUITS:
        for b in TRANSFER_CIRCUITS:
            assert np.isfinite(result.r2[a][b])
            assert result.mae[a][b] >= 0.0
    assert np.isfinite(result.mean_transfer_r2())


def test_transfer_text_and_json(transfer_outcome):
    text = transfer_outcome.text
    assert "Cross-circuit transfer" in text
    for circuit in TRANSFER_CIRCUITS:
        assert circuit in text
    payload = json.loads(transfer_outcome.exports["transfer.json"])
    assert payload["circuits"] == TRANSFER_CIRCUITS
    assert set(payload["r2"]) == set(TRANSFER_CIRCUITS)


def test_transfer_deterministic(tiny_runner, transfer_outcome):
    """Same spec, warm cache: identical matrix."""
    again = tiny_runner.run(
        ExperimentSpec.make("transfer", scale="tiny", seed=0, circuits=TRANSFER_CIRCUITS)
    )
    assert again.result.r2 == transfer_outcome.result.r2


def test_cli_transfer_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "results"
    code = cli_main(
        [
            "transfer",
            "--preset",
            "tiny",
            "--circuits",
            "counter16",
            "shiftreg16",
            "lfsr16",
            "gray8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "Cross-circuit transfer" in captured
    payload = json.loads((out / "transfer.json").read_text())
    assert payload["circuits"] == ["counter16", "shiftreg16", "lfsr16", "gray8"]
