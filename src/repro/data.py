"""Dataset generation and caching — for any registered circuit.

One call produces the labelled per-flip-flop dataset the paper's section IV
trains on: build the circuit, run its registered workload, run the full
flat statistical fault-injection campaign, extract features, assemble the
:class:`~repro.features.dataset.Dataset`.  Results are cached as JSON under
``.repro_cache/`` keyed by a hash of the generation parameters, because the
full campaign (1012 flip-flops × 170 injections on the MAC) takes minutes.

The circuit, workload builder and failure criterion are all pluggable: a
:class:`DatasetSpec` names a circuit from
:mod:`repro.circuits.library`, the workload comes from the registry in
:mod:`repro.circuits.workloads`, and ``criterion="auto"`` resolves to the
registered default (the paper's packet criterion for the MAC presets, the
strict any-output criterion for the library circuits).

Three MAC scales are predefined (``tiny``/``mini``/``full``), and
:func:`circuit_preset` / :func:`transfer_presets` produce equivalent specs
for every library circuit — the inputs of the cross-circuit transfer
experiment.

Every cached dataset records its provenance in ``Dataset.meta`` — the
generating spec, the campaign content address, the schedule and the code
version — plus a ``schema_version``; caches written by an older
schema self-invalidate instead of silently loading.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from . import __version__
from .campaigns.executor import CampaignEngine
from .campaigns.spec import CampaignSpec, build_context
from .circuits.library import LIBRARY_CIRCUITS
from .circuits.workloads import default_criterion
from .faultinjection.campaign import CampaignResult
from .faultinjection.faults import canonical_fault_model
from .features.dataset import Dataset
from .features.extractor import build_dataset
from .obs import get_telemetry

__all__ = [
    "DatasetSpec",
    "DATASET_PRESETS",
    "DATASET_SCHEMA_VERSION",
    "circuit_preset",
    "transfer_presets",
    "generate_dataset",
    "get_dataset",
    "default_cache_dir",
]

#: Bumped whenever the cached-dataset layout or the feature semantics
#: change; caches stamped with an older (or missing) version regenerate.
#: Version 3 added the ``fault_model`` provenance column (PR 8).
DATASET_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class DatasetSpec:
    """All parameters that determine a generated dataset.

    The six workload knobs are interpreted by the circuit's registered
    builder: frames/lengths/inter-frame gap for the MAC presets, stimulus
    bursts/lengths/idle gap for the generic burst testbench.
    ``criterion="auto"`` defers to the workload registry's default for the
    circuit.
    """

    circuit: str = "xgmac_mini"
    n_frames: int = 8
    min_len: int = 4
    max_len: int = 7
    gap: int = 14
    workload_seed: int = 1
    n_injections: int = 60
    campaign_seed: int = 0
    criterion: str = "auto"
    #: Registered fault model labelling the dataset (canonicalized by the
    #: campaign spec; see :mod:`repro.faultinjection.faults`).  The default
    #: ``"seu"`` is excluded from the cache key so pre-registry SEU dataset
    #: caches keep their content addresses.
    fault_model: str = "seu"

    def cache_key(self) -> str:
        payload_dict = asdict(self)
        payload_dict["fault_model"] = canonical_fault_model(self.fault_model)
        if payload_dict["fault_model"] == "seu":
            payload_dict.pop("fault_model")
        payload = json.dumps(payload_dict, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


DATASET_PRESETS: Dict[str, DatasetSpec] = {
    "tiny": DatasetSpec(
        circuit="xgmac_tiny",
        n_frames=5,
        min_len=2,
        max_len=3,
        gap=12,
        n_injections=24,
    ),
    "mini": DatasetSpec(
        circuit="xgmac_mini",
        n_frames=8,
        min_len=4,
        max_len=7,
        gap=14,
        n_injections=60,
    ),
    "full": DatasetSpec(
        circuit="xgmac",
        n_frames=12,
        min_len=8,
        max_len=24,
        gap=30,
        n_injections=170,
    ),
}

#: Workload/budget knobs per scale for the per-circuit presets.
_CIRCUIT_SCALES: Dict[str, Dict[str, int]] = {
    "tiny": dict(n_frames=4, min_len=2, max_len=4, gap=8, n_injections=24),
    "mini": dict(n_frames=8, min_len=4, max_len=7, gap=12, n_injections=60),
    "full": dict(n_frames=16, min_len=6, max_len=12, gap=16, n_injections=170),
}


def circuit_preset(circuit: str, scale: str = "tiny") -> DatasetSpec:
    """A :class:`DatasetSpec` for any registered circuit at a named scale.

    The circuit the scale's MAC preset was hand-tuned for gets exactly that
    preset (:data:`DATASET_PRESETS`); every other circuit — library or MAC —
    gets the scale's generic workload/budget knobs, so all specs returned
    for one *scale* share the same injection budget.
    """
    try:
        knobs = _CIRCUIT_SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; choose from {sorted(_CIRCUIT_SCALES)}"
        ) from None
    if DATASET_PRESETS[scale].circuit == circuit:
        return DATASET_PRESETS[scale]
    return DatasetSpec(circuit=circuit, **knobs)


def transfer_presets(
    scale: str = "tiny", circuits: Optional[Iterable[str]] = None
) -> Dict[str, DatasetSpec]:
    """Per-circuit dataset specs for the cross-circuit transfer experiment.

    Defaults to every library circuit (:data:`~repro.circuits.library.LIBRARY_CIRCUITS`).
    """
    chosen = list(circuits) if circuits is not None else list(LIBRARY_CIRCUITS)
    return {circuit: circuit_preset(circuit, scale) for circuit in chosen}


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in CWD."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def generate_dataset(
    spec: DatasetSpec,
    jobs: int = 1,
    campaign_cache_dir: Optional[Path] = None,
) -> Tuple[Dataset, CampaignResult]:
    """Run the full reference flow for *spec* (no dataset caching).

    The fault campaign runs on the :class:`~repro.campaigns.CampaignEngine`
    in ``legacy`` schedule mode, whose counters do not depend on the shard
    layout — so datasets are bit-stable across ``jobs`` counts — with
    sharded execution and (when *campaign_cache_dir* is set) snapshot
    reuse and resumability.

    The returned dataset's ``meta`` records full label provenance: the
    generating spec, the campaign spec's content address, the draw
    schedule and the package version.
    """
    campaign_spec = CampaignSpec.from_dataset_spec(spec, schedule="legacy")
    # Instantiate the environment exactly as sharded worker processes do
    # (circuit, workload and criterion all resolve from the campaign spec),
    # so serial and jobs > 1 runs can never diverge in construction.
    context = build_context(campaign_spec)
    # Record the golden trace up front so its span is a sibling of the
    # campaign span in the trace, not buried inside it.
    golden = context.ensure_golden()
    engine = CampaignEngine(
        campaign_spec, jobs=jobs, cache_dir=campaign_cache_dir, context=context
    )
    campaign = engine.run()
    with get_telemetry().tracer.span(
        "features", circuit=spec.circuit, n_ff=len(campaign.results)
    ):
        dataset = build_dataset(
            context.netlist,
            golden,
            campaign,
            meta={
                "schema_version": DATASET_SCHEMA_VERSION,
                "spec": asdict(spec),
                "criterion": campaign_spec.criterion,
                "fault_model": campaign_spec.fault_model,
                "campaign_key": campaign_spec.cache_key(),
                "schedule": campaign_spec.schedule,
                "code_version": __version__,
            },
        )
    return dataset, campaign


def get_dataset(
    preset: str = "mini",
    spec: Optional[DatasetSpec] = None,
    cache_dir: Optional[Path] = None,
    regenerate: bool = False,
    jobs: int = 1,
) -> Dataset:
    """Load (or generate and cache) a labelled dataset.

    Either name a preset (``tiny``/``mini``/``full``) or pass an explicit
    :class:`DatasetSpec` (e.g. from :func:`circuit_preset`).  ``jobs > 1``
    shards the fault campaign across worker processes (the result is
    bit-identical to ``jobs=1``); the same *cache_dir* also holds the
    campaign result store, so an interrupted generation resumes instead of
    restarting.  A cached file whose ``meta["schema_version"]`` does not
    match :data:`DATASET_SCHEMA_VERSION` is regenerated in place.
    """
    if spec is None:
        try:
            spec = DATASET_PRESETS[preset]
        except KeyError:
            raise KeyError(
                f"unknown preset {preset!r}; choose from {sorted(DATASET_PRESETS)}"
            ) from None
    if spec.criterion == "auto":
        # Resolve against the workload registry *before* hashing, so the
        # cache key names the concrete criterion: re-registering a circuit
        # with a different default invalidates its cached labels instead of
        # silently serving ones judged under the old rules.
        spec = replace(spec, criterion=default_criterion(spec.circuit))
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_file = cache_dir / f"dataset_{spec.circuit}_{spec.cache_key()}.json"
    registry = get_telemetry().registry
    if cache_file.exists() and not regenerate:
        try:
            dataset = Dataset.from_json(cache_file.read_text())
        except (ValueError, KeyError):
            dataset = None  # corrupt cache entry: fall through and rebuild
        if (
            dataset is not None
            and dataset.meta.get("schema_version") == DATASET_SCHEMA_VERSION
        ):
            registry.counter("dataset.cache_hit").inc()
            return dataset
    registry.counter("dataset.cache_miss").inc()
    with get_telemetry().tracer.span(
        "dataset", circuit=spec.circuit, n_injections=spec.n_injections
    ):
        dataset, _campaign = generate_dataset(
            spec, jobs=jobs, campaign_cache_dir=cache_dir
        )
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_file.write_text(dataset.to_json())
    return dataset
