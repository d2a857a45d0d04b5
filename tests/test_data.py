"""Dataset generation and caching tests."""

import json

import numpy as np
import pytest

from repro.campaigns.spec import CampaignSpec, build_context
from repro.circuits import LIBRARY_CIRCUITS
from repro.circuits.generator import GENERATED_FF_COUNTS
from repro.data import (
    DATASET_PRESETS,
    DATASET_SCHEMA_VERSION,
    DatasetSpec,
    circuit_preset,
    get_dataset,
)
from repro.features.dataset import Dataset


def test_presets_defined():
    assert set(DATASET_PRESETS) == {"tiny", "mini", "full"}
    assert DATASET_PRESETS["full"].n_injections == 170
    assert DATASET_PRESETS["full"].circuit == "xgmac"


def test_cache_key_stability():
    a = DatasetSpec(circuit="xgmac_tiny", n_injections=8)
    b = DatasetSpec(circuit="xgmac_tiny", n_injections=8)
    c = DatasetSpec(circuit="xgmac_tiny", n_injections=9)
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != c.cache_key()


def test_build_context_from_dataset_spec():
    context = build_context(CampaignSpec.from_dataset_spec(DATASET_PRESETS["tiny"]))
    assert context.netlist.name == "xgmac_tiny"
    assert context.workload.testbench.n_cycles > 0
    assert context.workload.valid_nets == ["pkt_rx_val"]


def test_get_dataset_generates_and_caches(tmp_path):
    spec = DatasetSpec(
        circuit="xgmac_tiny", n_frames=3, min_len=2, max_len=3, gap=12, n_injections=6
    )
    first = get_dataset(spec=spec, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("dataset_*.json"))
    assert len(cache_files) == 1
    second = get_dataset(spec=spec, cache_dir=tmp_path)
    assert second.ff_names == first.ff_names
    assert (second.X == first.X).all()
    assert (second.y == first.y).all()


def test_get_dataset_regenerate(tmp_path):
    spec = DatasetSpec(
        circuit="xgmac_tiny", n_frames=3, min_len=2, max_len=3, gap=12, n_injections=6
    )
    first = get_dataset(spec=spec, cache_dir=tmp_path)
    second = get_dataset(spec=spec, cache_dir=tmp_path, regenerate=True)
    assert (second.y == first.y).all()  # deterministic regeneration


def test_get_dataset_unknown_preset(tmp_path):
    with pytest.raises(KeyError):
        get_dataset("huge", cache_dir=tmp_path)


def test_cached_tiny_dataset_labels(cached_tiny_dataset):
    ds = cached_tiny_dataset
    assert ds.meta["n_injections"] == DATASET_PRESETS["tiny"].n_injections
    assert 0.0 < float(ds.y.mean()) < 0.5
    assert ds.n_samples > 200


def test_dataset_meta_records_provenance(cached_tiny_dataset):
    """Labels carry their full generation lineage for reproducibility."""
    meta = cached_tiny_dataset.meta
    assert meta["schema_version"] == DATASET_SCHEMA_VERSION
    assert meta["schedule"] == "legacy"
    assert meta["criterion"] == "packet"
    assert isinstance(meta["campaign_key"], str) and len(meta["campaign_key"]) == 16
    assert meta["spec"]["circuit"] == "xgmac_tiny"
    import repro

    assert meta["code_version"] == repro.__version__


def test_stale_schema_cache_regenerates(tmp_path):
    """A cache written by an older schema self-invalidates on load."""
    spec = DatasetSpec(
        circuit="counter8", n_frames=2, min_len=2, max_len=3, gap=6, n_injections=4
    )
    first = get_dataset(spec=spec, cache_dir=tmp_path)
    cache_file = next(tmp_path.glob("dataset_counter8_*.json"))
    payload = json.loads(cache_file.read_text())
    payload["meta"]["schema_version"] = DATASET_SCHEMA_VERSION - 1
    payload["y"] = [0.123] * len(payload["y"])  # poison: must not be served
    cache_file.write_text(json.dumps(payload))
    second = get_dataset(spec=spec, cache_dir=tmp_path)
    assert (second.y == first.y).all()
    # The cache file was rewritten with the current schema.
    refreshed = json.loads(cache_file.read_text())
    assert refreshed["meta"]["schema_version"] == DATASET_SCHEMA_VERSION


def test_corrupt_cache_regenerates(tmp_path):
    spec = DatasetSpec(
        circuit="counter8", n_frames=2, min_len=2, max_len=3, gap=6, n_injections=4
    )
    first = get_dataset(spec=spec, cache_dir=tmp_path)
    cache_file = next(tmp_path.glob("dataset_counter8_*.json"))
    cache_file.write_text("{ truncated")
    second = get_dataset(spec=spec, cache_dir=tmp_path)
    assert (second.y == first.y).all()


# ------------------------------------------------- circuit-generic datasets


@pytest.mark.parametrize("circuit", LIBRARY_CIRCUITS)
def test_library_circuit_dataset_generates_and_round_trips(circuit, tmp_path):
    """Every library circuit: generate, cache, JSON round-trip."""
    spec = DatasetSpec(
        circuit=circuit, n_frames=2, min_len=2, max_len=3, gap=6, n_injections=4
    )
    ds = get_dataset(spec=spec, cache_dir=tmp_path)
    assert ds.n_samples > 0
    assert ds.meta["circuit"].startswith(circuit.rstrip("0123456789x"))
    assert set(ds.groups) == {"structural", "synthesis", "dynamic"}
    assert np.all((ds.y >= 0) & (ds.y <= 1))
    # Cache hit returns the same content.
    again = get_dataset(spec=spec, cache_dir=tmp_path)
    assert (again.X == ds.X).all() and again.ff_names == ds.ff_names
    # JSON round-trip preserves groups and meta.
    restored = Dataset.from_json(ds.to_json())
    assert restored.groups == ds.groups and restored.meta == ds.meta


def test_library_circuit_dataset_trains_end_to_end(tmp_path):
    """A library-circuit dataset drives the paper protocol end to end."""
    from repro.data import circuit_preset
    from repro.experiments import run_table1

    ds = get_dataset(spec=circuit_preset("fifo8x4", "tiny"), cache_dir=tmp_path)
    result = run_table1(ds, cv_folds=3, seed=0)
    assert set(result.rows) == {"Linear Least Squares", "k-NN", "SVR w/ RBF Kernel"}
    for metrics in result.rows.values():
        assert np.isfinite(metrics["r2"])


def test_get_dataset_on_generated_circuit(tmp_path):
    """Regression: generated presets name their netlist after its shape
    (``mesh_tiny`` builds ``mesh2x4x8``), which the campaign engine's
    context check used to reject as a foreign circuit."""
    dataset = get_dataset(spec=circuit_preset("mesh_tiny", "tiny"), cache_dir=tmp_path)
    assert dataset.n_samples == GENERATED_FF_COUNTS["mesh_tiny"]
    assert dataset.meta["spec"]["circuit"] == "mesh_tiny"
