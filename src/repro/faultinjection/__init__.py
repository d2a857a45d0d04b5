"""SEU fault-injection: models, injector, campaigns, FDR statistics."""

from .campaign import CampaignResult, FlipFlopResult
from .classify import (
    AnyOutputCriterion,
    BoundCriterion,
    FailureCriterion,
    PacketInterfaceCriterion,
)
from .faults import (
    BoundFaultModel,
    FaultModel,
    FaultModelError,
    InjectionPlan,
    IntermittentModel,
    MbuModel,
    SetSweepModel,
    SeuModel,
    StuckAtModel,
    available_fault_models,
    canonical_fault_model,
    ff_adjacency,
    parse_fault_model,
    register_fault_model,
)
from .fdr import FdrEstimate, required_sample_size, wilson_interval
from .injector import BatchOutcome, FaultInjector, relevant_flip_flops
from .scheduler import AdaptiveScheduler, ScheduledOutcome, SchedulerStats

__all__ = [
    "CampaignResult",
    "FlipFlopResult",
    "AnyOutputCriterion",
    "BoundCriterion",
    "FailureCriterion",
    "PacketInterfaceCriterion",
    "BoundFaultModel",
    "FaultModel",
    "FaultModelError",
    "InjectionPlan",
    "IntermittentModel",
    "MbuModel",
    "SetSweepModel",
    "SeuModel",
    "StuckAtModel",
    "available_fault_models",
    "canonical_fault_model",
    "ff_adjacency",
    "parse_fault_model",
    "register_fault_model",
    "FdrEstimate",
    "required_sample_size",
    "wilson_interval",
    "BatchOutcome",
    "FaultInjector",
    "relevant_flip_flops",
    "AdaptiveScheduler",
    "ScheduledOutcome",
    "SchedulerStats",
]
