"""Self-contained campaign specifications.

A :class:`CampaignSpec` captures *everything* that determines a campaign's
per-flip-flop results: the circuit preset, the workload generator
parameters, the failure criterion, the injection budget and the RNG seeds.
Because the spec is a small frozen dataclass it can be

* hashed into a content address for the result store
  (:meth:`CampaignSpec.cache_key` / :meth:`CampaignSpec.family_key`), and
* pickled to worker processes, which rebuild the netlist, testbench and
  golden trace locally instead of shipping megabytes of simulator state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..circuits.library import get_circuit
from ..circuits.workloads import Workload, build_workload_for, default_criterion
from ..faultinjection.faults import FaultModelError, canonical_fault_model, parse_fault_model
from .policy import DEFAULT_TARGET_MARGIN, SAMPLING_POLICIES
from ..faultinjection.classify import (
    AnyOutputCriterion,
    FailureCriterion,
    PacketInterfaceCriterion,
)
from ..netlist.core import Netlist
from ..sim.testbench import GoldenTrace

__all__ = ["CampaignSpec", "CampaignContext", "build_context", "check_context"]

SCHEDULES = ("stream", "legacy")
CRITERIA = ("packet", "any_output", "observed")

#: Retired spec fields at the one value every campaign ran with.  They stay
#: in the identity dict so existing stores and dataset ``campaign_key``
#: values stay addressable until the store is re-keyed (ROADMAP [2]).
_RETIRED_IDENTITY = {"check_interval": 8, "horizon": None, "max_lanes": 256}


@dataclass(frozen=True)
class CampaignSpec:
    """All parameters that determine a fault-injection campaign.

    ``schedule`` selects the injection-time scheduler:

    * ``"legacy"`` buckets :func:`~repro.campaigns.partition.legacy_draws`,
      the paper-protocol draw: a seeded slot pool, then *n* pool slots per
      flip-flop.  Its counters do not depend on ``jobs`` or the shard
      layout.  ``n_time_slots`` sizes its slot pool and is rejected with
      any other schedule;
    * ``"stream"`` draws injection times as a prefix-stable per-flip-flop
      stream (see :func:`repro.campaigns.partition.stream_buckets`), which
      lets the result store extend a cached *n*-injection campaign to
      *m > n* injections by simulating only the ``m - n`` delta.
    """

    circuit: str = "xgmac_mini"
    n_frames: int = 8
    min_len: int = 4
    max_len: int = 7
    gap: int = 14
    workload_seed: int = 1
    n_injections: int = 60
    seed: int = 0
    schedule: str = "stream"
    criterion: str = "packet"
    ff_names: Optional[Tuple[str, ...]] = None
    n_time_slots: Optional[int] = None
    policy: str = "flat"
    target_margin: float = DEFAULT_TARGET_MARGIN
    #: Registered fault model applied at every drawn ``(cycle, ff)`` site
    #: (see :mod:`repro.faultinjection.faults`).  Stored canonically
    #: (sorted explicit parameters) so equivalent spellings share one
    #: cache identity; the default ``"seu"`` is *excluded* from the
    #: identity dict so pre-registry SEU store keys remain valid.
    fault_model: str = "seu"

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; choose from {SCHEDULES}")
        if self.policy not in SAMPLING_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {SAMPLING_POLICIES}"
            )
        if not 0.0 <= self.target_margin < 1.0:
            raise ValueError("target_margin must be in [0, 1)")
        if self.policy == "sequential" and self.schedule != "stream":
            raise ValueError(
                "policy='sequential' requires the prefix-stable 'stream' "
                "schedule (legacy draws reshuffle when the budget changes)"
            )
        if self.n_time_slots is not None and self.schedule != "legacy":
            raise ValueError(
                "n_time_slots sizes the legacy schedule's slot pool; the "
                f"{self.schedule!r} schedule draws its own"
            )
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}; choose from {CRITERIA}")
        if self.n_injections <= 0:
            raise ValueError("n_injections must be positive")
        model = parse_fault_model(self.fault_model)
        if not model.supports_ff_campaign:
            raise FaultModelError(
                f"fault model {model.name!r} does not target flip-flops and "
                f"cannot drive a statistical campaign"
            )
        object.__setattr__(self, "fault_model", canonical_fault_model(model))

    # ------------------------------------------------------------- identity

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        if payload["ff_names"] is not None:
            payload["ff_names"] = list(payload["ff_names"])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        data = dict(payload)
        # Retired execution knobs: store documents written by older
        # versions still carry them in their ``spec`` record.
        for key in ("backend", "scheduler", *_RETIRED_IDENTITY):
            data.pop(key, None)
        if data.get("ff_names") is not None:
            data["ff_names"] = tuple(data["ff_names"])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def _hash_of(self, payload: Dict[str, object]) -> str:
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    def _identity_dict(self) -> Dict[str, object]:
        """Fields that determine the campaign's *results*.

        The sampling policy (and its target margin) is deliberately absent:
        per-draw verdicts are policy-invariant, so flat and sequential runs
        of one family share draws and store documents — the store
        namespaces the policy's *realized* snapshots separately (see
        :func:`repro.campaigns.policy.policy_signature`).
        """
        payload = self.to_dict()
        payload.pop("policy", None)
        payload.pop("target_margin", None)
        if payload.get("fault_model") == "seu":
            # Single-bit SEUs are the pre-registry default; dropping the
            # field keeps every cached SEU store key valid.
            payload.pop("fault_model")
        payload.update(_RETIRED_IDENTITY)
        return payload

    def cache_key(self) -> str:
        """Content address of this exact campaign (injection budget included)."""
        return self._hash_of(self._identity_dict())

    def family_key(self) -> str:
        """Content address of the campaign *family* sharing one store file.

        For the ``stream`` schedule the injection budget is excluded: all
        budgets of the same family share injection draws as prefixes, so a
        cached 50-injection snapshot can seed a 170-injection run.  The
        ``legacy`` schedule reshuffles everything when the budget changes,
        so there the budget stays part of the identity.
        """
        payload = self._identity_dict()
        if self.schedule == "stream":
            payload.pop("n_injections")
        return self._hash_of(payload)

    def with_injections(self, n_injections: int) -> "CampaignSpec":
        return replace(self, n_injections=n_injections)

    @classmethod
    def from_dataset_spec(
        cls,
        dataset_spec,
        schedule: str = "legacy",
        n_injections: Optional[int] = None,
        policy: str = "flat",
        target_margin: float = DEFAULT_TARGET_MARGIN,
        fault_model: Optional[str] = None,
    ) -> "CampaignSpec":
        """Mirror a :class:`repro.data.DatasetSpec` (duck-typed to avoid the
        circular import; ``repro.data`` builds on this package).

        A dataset spec's ``criterion`` of ``"auto"`` resolves here to the
        workload registry's default for the circuit, so the campaign spec —
        and with it the result-store content address — always names a
        concrete criterion.  ``fault_model`` defaults to the dataset spec's
        own (itself defaulting to ``"seu"``); pass an explicit value to
        override it.
        """
        criterion = getattr(dataset_spec, "criterion", "auto")
        if criterion == "auto":
            criterion = default_criterion(dataset_spec.circuit)
        if fault_model is None:
            fault_model = getattr(dataset_spec, "fault_model", "seu")
        return cls(
            policy=policy,
            target_margin=target_margin,
            fault_model=fault_model,
            circuit=dataset_spec.circuit,
            n_frames=dataset_spec.n_frames,
            min_len=dataset_spec.min_len,
            max_len=dataset_spec.max_len,
            gap=dataset_spec.gap,
            workload_seed=dataset_spec.workload_seed,
            n_injections=(
                n_injections if n_injections is not None else dataset_spec.n_injections
            ),
            seed=dataset_spec.campaign_seed,
            schedule=schedule,
            criterion=criterion,
        )


@dataclass
class CampaignContext:
    """Instantiated campaign environment (netlist, workload, criterion).

    The golden trace is recorded lazily: the engine's planning stage only
    needs the active window (available from the workload), and worker
    processes record their own golden traces anyway.
    """

    netlist: Netlist
    workload: Workload
    criterion: FailureCriterion
    golden: Optional[GoldenTrace] = field(default=None, repr=False)

    @property
    def active_window(self) -> Tuple[int, int]:
        return self.workload.active_window

    def window_cycles(self) -> List[int]:
        first, last = self.workload.active_window
        n_cycles = self.workload.testbench.n_cycles
        if not 0 <= first < last <= n_cycles:
            raise ValueError(f"invalid active window {(first, last)}")
        return list(range(first, last))

    def ensure_golden(self) -> GoldenTrace:
        if self.golden is None:
            from ..obs import get_telemetry

            with get_telemetry().tracer.span(
                "golden_trace",
                circuit=self.netlist.name,
                n_cycles=self.workload.testbench.n_cycles,
            ):
                self.golden = self.workload.testbench.run_golden()
        return self.golden

    def ff_names(self, spec: CampaignSpec) -> List[str]:
        if spec.ff_names is not None:
            return list(spec.ff_names)
        return [ff.name for ff in self.netlist.flip_flops()]


def _build_workload(spec: CampaignSpec, netlist: Netlist) -> Workload:
    """The workload *spec* describes, built on *netlist*."""
    return build_workload_for(
        spec.circuit,
        netlist,
        n_frames=spec.n_frames,
        min_len=spec.min_len,
        max_len=spec.max_len,
        gap=spec.gap,
        seed=spec.workload_seed,
    )


def build_context(spec: CampaignSpec) -> CampaignContext:
    """Instantiate the netlist, workload and criterion a spec describes.

    The workload comes from the circuit's registered builder
    (:func:`repro.circuits.workloads.build_workload_for`): frame streaming
    for the MAC presets, the generic burst testbench for the library
    circuits, or whatever a downstream package registered.
    """
    from ..obs import get_telemetry

    with get_telemetry().tracer.span("synthesize", circuit=spec.circuit):
        netlist = get_circuit(spec.circuit)
        workload = _build_workload(spec, netlist)
    if spec.criterion == "packet":
        criterion: FailureCriterion = PacketInterfaceCriterion(
            workload.valid_nets, workload.data_nets
        )
    elif spec.criterion == "observed":
        criterion = AnyOutputCriterion(
            nets=list(workload.valid_nets) + list(workload.data_nets)
        )
    else:
        criterion = AnyOutputCriterion.all_outputs(netlist)
    return CampaignContext(netlist=netlist, workload=workload, criterion=criterion)


def check_context(spec: CampaignSpec, context: CampaignContext) -> None:
    """Raise ``ValueError`` unless *context* is the environment *spec* describes.

    Workers (jobs > 1), the process-wide warm cache and the result store
    trust the spec alone, so a divergent caller-supplied context would
    silently poison all three.  Checks the netlist name and criterion kind,
    then rebuilds the spec's workload on the supplied netlist and compares
    its active window, stimulus schedule, loopbacks and valid/data nets.
    """
    from ..circuits.library import netlist_name

    if context.netlist.name != netlist_name(spec.circuit):
        raise ValueError(
            f"context netlist {context.netlist.name!r} does not match "
            f"spec circuit {spec.circuit!r}"
        )
    expected = PacketInterfaceCriterion if spec.criterion == "packet" else AnyOutputCriterion
    if not isinstance(context.criterion, expected):
        raise ValueError(
            f"context criterion {type(context.criterion).__name__} does not "
            f"match spec criterion {spec.criterion!r}"
        )
    got, want = context.workload, _build_workload(spec, context.netlist)
    for part, mine, theirs in (
        ("active window", tuple(got.active_window), tuple(want.active_window)),
        ("stimulus schedule", got.testbench.schedule, want.testbench.schedule),
        ("loopbacks", got.testbench.loopbacks, want.testbench.loopbacks),
        ("valid nets", list(got.valid_nets), list(want.valid_nets)),
        ("data nets", list(got.data_nets), list(want.data_nets)),
    ):
        if mine != theirs:
            raise ValueError(
                f"context workload {part} does not match the workload "
                f"spec circuit {spec.circuit!r} builds"
            )
