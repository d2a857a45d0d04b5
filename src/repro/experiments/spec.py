"""Declarative experiment specifications and the unified runner.

Every experiment in this package — the paper reproductions (Table I,
Figs. 2-4) and the extensions (future-work models, ablation, tuning,
permutation importance, extended features, cross-circuit transfer) — runs
behind one protocol:

* an :class:`ExperimentSpec` names the experiment, the dataset scale, the
  seed and any experiment-specific options (a frozen, hashable value — two
  equal specs describe the same run);
* an :class:`ExperimentContext` owns the shared resources: the dataset
  cache directory, campaign parallelism, and an in-memory dataset memo so
  a batch of experiments on one scale generates/loads its dataset once;
* the :class:`ExperimentRunner` resolves the spec against the registered
  protocol (:func:`register_experiment`) and returns a uniform
  :class:`ExperimentOutcome` — the raw result object, the rendered text,
  and the export files the CLI writes under ``--out``.

The CLI (``python -m repro.experiments``) is a thin argparse shell over
this module; scripted users can drive the same runner directly::

    from repro.experiments.spec import ExperimentRunner, ExperimentSpec

    runner = ExperimentRunner(jobs=4)
    outcome = runner.run(ExperimentSpec.make("table1", scale="mini"))
    print(outcome.text)

See ``docs/experiments.md`` for the catalogue and extension points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..data import (
    DatasetSpec,
    default_cache_dir,
    get_dataset,
)
from ..features.dataset import Dataset
from ..obs import get_telemetry

__all__ = [
    "ExperimentSpec",
    "ExperimentOutcome",
    "ExperimentContext",
    "ExperimentRunner",
    "register_experiment",
    "available_experiments",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully determined experiment run.

    ``options`` is a sorted tuple of ``(key, value)`` pairs so the spec
    stays hashable; build specs through :meth:`make` and read options
    through :meth:`option`.
    """

    experiment: str
    scale: str = "mini"
    seed: int = 0
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls, experiment: str, scale: str = "mini", seed: int = 0, **options: object
    ) -> "ExperimentSpec":
        frozen = tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(options.items())
            if v is not None
        )
        return cls(experiment=experiment, scale=scale, seed=seed, options=frozen)

    def option(self, key: str, default: object = None) -> object:
        for k, v in self.options:
            if k == key:
                return v
        return default


@dataclass
class ExperimentOutcome:
    """Uniform result envelope: raw object, rendered text, export files."""

    spec: ExperimentSpec
    result: object
    text: str
    exports: Dict[str, str] = field(default_factory=dict)

    def write_exports(self, out_dir: Path) -> List[Path]:
        """Write every export file under *out_dir*; returns written paths."""
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, content in self.exports.items():
            path = out_dir / name
            path.write_text(content)
            written.append(path)
        return written


class ExperimentContext:
    """Shared resources for a batch of experiment runs.

    Datasets are memoized per generation spec, so running ``table1`` and
    ``ablation`` back to back loads the labelled dataset once — and the
    disk-level dataset/campaign caches below this memo make even the first
    load cheap on a warm cache directory.
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        jobs: int = 1,
        regenerate: bool = False,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.jobs = jobs
        self.regenerate = regenerate
        self._datasets: Dict[DatasetSpec, Dataset] = {}

    def dataset(
        self, preset: Optional[str] = None, spec: Optional[DatasetSpec] = None
    ) -> Dataset:
        """Load (or generate) the dataset for a preset name or explicit spec."""
        if spec is None:
            if preset is None:
                raise ValueError("pass a preset name or a DatasetSpec")
            from ..data import DATASET_PRESETS

            spec = DATASET_PRESETS[preset]
        cached = self._datasets.get(spec)
        if cached is None:
            cached = get_dataset(
                spec=spec,
                cache_dir=self.cache_dir,
                regenerate=self.regenerate,
                jobs=self.jobs,
            )
            self._datasets[spec] = cached
        return cached


Protocol = Callable[[ExperimentContext, ExperimentSpec], ExperimentOutcome]

_REGISTRY: Dict[str, Protocol] = {}


def register_experiment(name: str) -> Callable[[Protocol], Protocol]:
    """Decorator: enroll a protocol function under *name*."""

    def decorate(fn: Protocol) -> Protocol:
        _REGISTRY[name] = fn
        return fn

    return decorate


def available_experiments() -> List[str]:
    """Names of every registered experiment protocol."""
    return sorted(_REGISTRY)


class ExperimentRunner:
    """Resolves :class:`ExperimentSpec` objects against the registry."""

    def __init__(
        self, context: Optional[ExperimentContext] = None, **context_kwargs
    ) -> None:
        if context is not None and context_kwargs:
            raise ValueError("pass a context or context kwargs, not both")
        self.context = context if context is not None else ExperimentContext(**context_kwargs)

    def run(self, spec: ExperimentSpec) -> ExperimentOutcome:
        try:
            protocol = _REGISTRY[spec.experiment]
        except KeyError:
            raise KeyError(
                f"unknown experiment {spec.experiment!r}; "
                f"available: {available_experiments()}"
            ) from None
        # The protocol body covers dataset load/generation *and* model
        # fitting; the nested dataset/campaign spans carve out their share,
        # so this span's self-time is the training cost.
        with get_telemetry().tracer.span(
            "train", experiment=spec.experiment, scale=spec.scale, seed=spec.seed
        ):
            return protocol(self.context, spec)


# ---------------------------------------------------------------- protocols
#
# Each protocol reproduces exactly what the pre-runner CLI did for its
# experiment: same entry function, same arguments, same rendered text and
# the same export payloads — the runner only unifies the plumbing.


@register_experiment("table1")
def _table1(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .table1 import run_table1

    dataset = ctx.dataset(preset=spec.scale)
    result = run_table1(dataset, seed=spec.seed)
    text = (
        result.as_text()
        + f"\n\nshape holds (LLS worst, k-NN ~ SVR): {result.shape_holds()}"
    )
    exports = {"table1.json": json.dumps(result.rows, indent=2)}
    return ExperimentOutcome(spec=spec, result=result, text=text, exports=exports)


def _figure(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .figures import run_figure

    dataset = ctx.dataset(preset=spec.scale)
    result = run_figure(dataset, spec.experiment, seed=spec.seed)
    exports = {
        f"{spec.experiment}a_prediction.csv": result.prediction_csv(),
        f"{spec.experiment}b_learning_curve.csv": result.curve_csv(),
    }
    return ExperimentOutcome(
        spec=spec, result=result, text=result.as_text(), exports=exports
    )


for _fig in ("fig2", "fig3", "fig4"):
    _REGISTRY[_fig] = _figure


@register_experiment("future-work")
def _future_work(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .future_work import run_future_work

    dataset = ctx.dataset(preset=spec.scale)
    result = run_future_work(dataset, seed=spec.seed)
    text = result.as_text() + f"\n\nbest future-work model: {result.best_model()}"
    exports = {"future_work.json": json.dumps(result.rows, indent=2)}
    return ExperimentOutcome(spec=spec, result=result, text=text, exports=exports)


@register_experiment("ablation")
def _ablation(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .ablation import run_ablation

    dataset = ctx.dataset(preset=spec.scale)
    result = run_ablation(dataset, seed=spec.seed)
    exports = {"ablation.json": json.dumps(result.rows, indent=2)}
    return ExperimentOutcome(
        spec=spec, result=result, text=result.as_text(), exports=exports
    )


@register_experiment("tuning")
def _tuning(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .tuning import run_tuning

    dataset = ctx.dataset(preset=spec.scale)
    result = run_tuning(dataset, seed=spec.seed)
    payload = {"best_params": result.best_params, "best_scores": result.best_scores}
    exports = {"tuning.json": json.dumps(payload, indent=2, default=str)}
    return ExperimentOutcome(
        spec=spec, result=result, text=result.as_text(), exports=exports
    )


@register_experiment("importance")
def _importance(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .importance import run_importance

    dataset = ctx.dataset(preset=spec.scale)
    result = run_importance(dataset, seed=spec.seed)
    exports = {"importance.json": json.dumps(result.result.as_rows(), indent=2)}
    return ExperimentOutcome(
        spec=spec, result=result, text=result.as_text(), exports=exports
    )


@register_experiment("extended-features")
def _extended_features(ctx: ExperimentContext, spec: ExperimentSpec) -> ExperimentOutcome:
    from .extended_features import run_extended_features

    dataset = ctx.dataset(preset=spec.scale)
    result = run_extended_features(dataset, seed=spec.seed)
    payload = {"baseline_r2": result.baseline_r2, "extended_r2": result.extended_r2}
    exports = {"extended_features.json": json.dumps(payload, indent=2)}
    return ExperimentOutcome(
        spec=spec, result=result, text=result.as_text(), exports=exports
    )


# The transfer protocols live in (and register from) their own modules.
from . import transfer as _transfer  # noqa: E402,F401  (registration side effect)
from . import fault_transfer as _fault_transfer  # noqa: E402,F401  (registration side effect)
