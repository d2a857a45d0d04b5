"""Differential verification: circuit fuzzer, reference oracle, diff harness.

The campaign results rest on the claim that the fast bit-parallel compiled
simulator agrees with an HDL-style reference simulation.  This package turns
that claim into an executable property: seeded random netlists over the
whole cell library (:mod:`~repro.verify.fuzzer`), a tiny independent
interpreter that shares no code with either simulator
(:mod:`~repro.verify.oracle`), and a harness that cross-checks all three
engines plus the fault injector and pinpoints the first divergence
(:mod:`~repro.verify.diff`).

The same philosophy is applied to the execution layer itself by
:mod:`~repro.verify.chaos`: a seeded chaos harness that kills, hangs and
corrupts the campaign engine's own workers and store writes, asserting
that the supervised executor recovers to bit-identical results.
"""

from .chaos import (
    ChaosCampaignStore,
    ChaosFault,
    ChaosShardRunner,
    ChaosSpec,
    ChaosTrialError,
    ChaosTrialReport,
    run_chaos_trials,
)
from .diff import (
    FAULT_MODEL_CHECK_SPECS,
    HOLD_RUN_WORKLOADS,
    Divergence,
    SeedReport,
    VerifySummary,
    brute_force_fault,
    bruteforce_verdicts,
    naive_verdicts,
    run_event_differential,
    run_fault_model_check,
    run_generated_check,
    run_hold_run_check,
    run_injector_check,
    run_lane_differential,
    run_scheduler_check,
    verify_seed,
    verify_seeds,
)
from .fuzzer import (
    FUZZ_SCALES,
    FuzzSpec,
    generate_netlist,
    generate_schedule,
    generate_testbench,
    rebuild_netlist,
    shrink_netlist,
)
from .oracle import ORACLE_FUNCTIONS, OracleSimulator

__all__ = [
    "ChaosCampaignStore",
    "ChaosFault",
    "ChaosShardRunner",
    "ChaosSpec",
    "ChaosTrialError",
    "ChaosTrialReport",
    "run_chaos_trials",
    "Divergence",
    "SeedReport",
    "VerifySummary",
    "FAULT_MODEL_CHECK_SPECS",
    "HOLD_RUN_WORKLOADS",
    "brute_force_fault",
    "bruteforce_verdicts",
    "naive_verdicts",
    "run_event_differential",
    "run_fault_model_check",
    "run_generated_check",
    "run_hold_run_check",
    "run_injector_check",
    "run_lane_differential",
    "run_scheduler_check",
    "verify_seed",
    "verify_seeds",
    "FUZZ_SCALES",
    "FuzzSpec",
    "generate_netlist",
    "generate_schedule",
    "generate_testbench",
    "rebuild_netlist",
    "shrink_netlist",
    "ORACLE_FUNCTIONS",
    "OracleSimulator",
]
