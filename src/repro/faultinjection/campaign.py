"""Statistical fault-injection campaign orchestration.

Implements the paper's reference-data generation: "for each of the 1054
flip-flops 170 fault injection simulations were performed", with faults
injected "at different times during the active phase of the simulation".

Scheduling strategy
-------------------
Injection times are drawn per flip-flop, without replacement, from a pool of
*time slots* sampled uniformly inside the active window (:func:`legacy_draws`,
the one draw, which the engine's ``legacy`` schedule buckets too).  All
draws feed one :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`
run (:func:`run_buckets`, shared with the engine's shard runner): lanes
are activated at their own injection cycles, retired lanes are refilled
from the pending queue, and drained passes are compacted — so the whole
campaign runs in a handful of saturated forward passes.  Per-injection verdicts and
latencies equal one naive
:meth:`~repro.faultinjection.injector.FaultInjector.run_batch` lane per
injection (differentially verified per fuzz seed).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.core import Netlist
from ..sim.testbench import GoldenTrace, Testbench
from .classify import FailureCriterion
from .fdr import FdrEstimate
from .injector import FaultInjector
from .scheduler import AdaptiveScheduler, SchedulerStats

__all__ = [
    "FlipFlopResult",
    "CampaignResult",
    "StatisticalFaultCampaign",
    "legacy_draws",
    "run_buckets",
]


@dataclass
class FlipFlopResult:
    """Per-flip-flop campaign outcome."""

    ff_name: str
    n_injections: int = 0
    n_failures: int = 0
    latency_sum: int = 0

    @property
    def fdr(self) -> float:
        """Functional De-Rating factor: failures / injections.

        ``nan`` when the flip-flop received no injections — an unmeasured
        flip-flop has *unknown* de-rating, not a perfect 0.0 (which would
        silently rank it as the most reliable state bit in every report
        and train regressors on fabricated labels).
        """
        if self.n_injections == 0:
            return float("nan")
        return self.n_failures / self.n_injections

    @property
    def mean_error_latency(self) -> Optional[float]:
        """Mean cycles from SEU to observable failure (failed runs only)."""
        if self.n_failures == 0:
            return None
        return self.latency_sum / self.n_failures

    @property
    def estimate(self) -> FdrEstimate:
        return FdrEstimate(self.n_injections, self.n_failures)


@dataclass
class CampaignResult:
    """Complete campaign record, serializable for caching and reports."""

    #: Serialization schema version written by :meth:`to_payload`.  Bump when
    #: the payload layout changes; :meth:`from_payload` rejects newer versions
    #: so stale readers fail loudly instead of misparsing cached results.
    SCHEMA_VERSION = 1

    circuit: str
    n_injections: int
    seed: int
    results: Dict[str, FlipFlopResult] = field(default_factory=dict)
    n_forward_runs: int = 0
    total_lane_cycles: int = 0
    wall_seconds: float = 0.0

    @classmethod
    def from_counts(
        cls,
        circuit: str,
        n_injections: int,
        seed: int,
        ff_names: Sequence[str],
        counts: Dict[str, Sequence[int]],
        **metrics: float,
    ) -> "CampaignResult":
        """Assemble a result from ``counts[ff] = [injections, failures,
        latency_sum]`` (a flip-flop of *ff_names* without counts is
        unmeasured); *metrics* are the engine-cost fields."""
        result = cls(circuit, n_injections, seed, **metrics)
        for name in ff_names:
            result.results[name] = FlipFlopResult(name, *counts.get(name, (0, 0, 0)))
        return result

    def fdr(self, ff_name: str) -> float:
        return self.results[ff_name].fdr

    def fdr_vector(self, ff_order: Sequence[str]) -> List[float]:
        """FDR values in the given flip-flop order."""
        return [self.results[name].fdr for name in ff_order]

    def mean_fdr(self) -> float:
        """Mean FDR over the flip-flops that were actually measured.

        Flip-flops with zero injections contribute ``nan`` individually
        (see :attr:`FlipFlopResult.fdr`) and are excluded here; ``nan`` is
        returned only when *nothing* was measured.
        """
        measured = [r.fdr for r in self.results.values() if r.n_injections > 0]
        if not measured:
            return float("nan")
        return sum(measured) / len(measured)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable dict form (shared by :meth:`to_json` and the
        campaign result store)."""
        return {
            "version": self.SCHEMA_VERSION,
            "circuit": self.circuit,
            "n_injections": self.n_injections,
            "seed": self.seed,
            "n_forward_runs": self.n_forward_runs,
            "total_lane_cycles": self.total_lane_cycles,
            "wall_seconds": self.wall_seconds,
            "results": {
                name: [r.n_injections, r.n_failures, r.latency_sum]
                for name, r in self.results.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignResult":
        version = payload.get("version", 0)
        if version > cls.SCHEMA_VERSION:
            raise ValueError(
                f"campaign result written by a newer schema "
                f"(version {version} > supported {cls.SCHEMA_VERSION})"
            )
        result = cls(
            circuit=payload["circuit"],
            n_injections=payload["n_injections"],
            seed=payload["seed"],
            n_forward_runs=payload.get("n_forward_runs", 0),
            total_lane_cycles=payload.get("total_lane_cycles", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )
        for name, fields in payload["results"].items():
            n_inj, n_fail = fields[0], fields[1]
            latency_sum = fields[2] if len(fields) > 2 else 0
            result.results[name] = FlipFlopResult(name, n_inj, n_fail, latency_sum)
        return result

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_payload(json.loads(text))


class StatisticalFaultCampaign:
    """Runs per-flip-flop SEU campaigns against a testbench workload.

    Parameters
    ----------
    netlist / testbench / criterion:
        The device under test, its workload and the functional-failure
        definition.
    active_window:
        ``(first, last)`` injection-cycle range; defaults to the whole
        trace minus a small warm-up.
    golden:
        Reuse a previously recorded golden trace (otherwise recorded here).
    check_interval:
        Cycles between the injector's early-retirement checks.
    fault_model:
        Registered fault model applied at every drawn ``(cycle, ff)``
        site (see :mod:`repro.faultinjection.faults`); ``None`` keeps
        the paper's single-bit SEU semantics.
    """

    def __init__(
        self,
        netlist: Netlist,
        testbench: Testbench,
        criterion: FailureCriterion,
        active_window: Optional[Tuple[int, int]] = None,
        golden: Optional[GoldenTrace] = None,
        check_interval: int = 8,
        fault_model: Optional[object] = None,
    ) -> None:
        self.netlist = netlist
        self.testbench = testbench
        self.criterion = criterion
        self.golden = golden if golden is not None else testbench.run_golden()
        if active_window is None:
            active_window = (
                min(8, self.golden.n_cycles - 1),
                self.golden.n_cycles - 1,
            )
        first, last = active_window
        if not 0 <= first < last <= self.golden.n_cycles:
            raise ValueError(f"invalid active window {active_window}")
        self.active_window = (first, last)
        self.injector = FaultInjector(
            netlist,
            testbench,
            self.golden,
            criterion,
            check_interval=check_interval,
            fault_model=fault_model,
        )

    def run(
        self,
        n_injections: int = 170,
        ff_names: Optional[Sequence[str]] = None,
        seed: int = 0,
        n_time_slots: Optional[int] = None,
        horizon: Optional[int] = None,
    ) -> CampaignResult:
        """Run the campaign and estimate the FDR of every targeted flip-flop.

        ``ff_names`` restricts the campaign to a subset (the paper's
        reduced-cost training campaigns); default is all flip-flops.
        """
        start_time = time.monotonic()
        if ff_names is None:
            ff_names = [ff.name for ff in self.netlist.flip_flops()]
        first, last = self.active_window
        table = legacy_draws(
            range(first, last), ff_names, n_injections, seed, n_time_slots
        )
        counts, _skipped, stats = run_buckets(
            AdaptiveScheduler(self.injector), sorted(table.items()), horizon=horizon
        )
        return CampaignResult.from_counts(
            self.netlist.name,
            n_injections,
            seed,
            ff_names,
            counts,
            n_forward_runs=stats.n_passes,
            total_lane_cycles=stats.lane_cycles,
            wall_seconds=time.monotonic() - start_time,
        )


def legacy_draws(
    window: Sequence[int],
    ff_names: Sequence[str],
    n_injections: int,
    seed: int,
    n_time_slots: Optional[int] = None,
) -> Dict[int, List[str]]:
    """The ``legacy`` schedule: every flip-flop's injection cycles.

    Consumes ``random.Random(seed)`` in one fixed order: a pool of
    *n_time_slots* distinct cycles of *window* (default ``min(len(window),
    1.5 n)``), then one sample of *n_injections* pool slots per flip-flop,
    in *ff_names* order.  Returns ``{cycle: [ff, ...]}``, each list in draw
    order (the lane order of that cycle's bucket).
    """
    window = list(window)
    if n_time_slots is None:
        n_time_slots = min(len(window), max(n_injections, int(1.5 * n_injections)))
    if n_time_slots < n_injections:
        raise ValueError(
            f"need at least {n_injections} time slots in the active window, "
            f"got {n_time_slots}"
        )
    if n_time_slots > len(window):
        raise ValueError(
            f"n_time_slots={n_time_slots} exceeds the {len(window)} cycles of "
            f"the active window"
        )
    rng = random.Random(seed)
    slots = sorted(rng.sample(window, n_time_slots))
    table: Dict[int, List[str]] = {}
    for name in ff_names:
        for cycle in rng.sample(slots, n_injections):
            table.setdefault(cycle, []).append(name)
    return table


def run_buckets(
    scheduler: AdaptiveScheduler,
    buckets: Sequence[Tuple[int, Sequence[str]]],
    horizon: Optional[int] = None,
    gates: Optional[Sequence[object]] = None,
    groups: Optional[Sequence[int]] = None,
) -> Tuple[Dict[str, List[int]], Dict[str, int], SchedulerStats]:
    """Simulate ``(cycle, ff_names)`` buckets in one scheduler run and tally
    the verdicts per flip-flop.

    *gates*, when given, hold one online policy gate per request group:
    ``admit(ff)`` may skip a draw before it costs a lane, and
    ``record(ff, failed)`` sees each verdict as its lane retires.  *groups*
    names each injection's gate, in bucket order (all group 0 when
    omitted).  Returns ``(counts, skipped, stats)``: ``counts[ff] =
    [injections, failures, latency_sum]`` of the simulated draws,
    ``skipped[ff]`` the draws a gate refused, and the run's scheduler
    statistics.
    """
    ff_index = scheduler.injector.ff_index
    names = [name for _cycle, lanes in buckets for name in lanes]
    admit = on_verdict = None
    if gates is not None:
        gate_of = [0] * len(names) if groups is None else groups
        admit = lambda key: gates[gate_of[key]].admit(names[key])  # noqa: E731
        on_verdict = lambda key, failed: gates[gate_of[key]].record(  # noqa: E731
            names[key], failed
        )
    outcome = scheduler.run(
        ((cycle, ff_index(name)) for cycle, lanes in buckets for name in lanes),
        horizon=horizon,
        admit=admit,
        on_verdict=on_verdict,
        groups=groups,
    )
    skipped_keys = frozenset(outcome.skipped)
    failed, latency = outcome.failed, outcome.latency
    counts: Dict[str, List[int]] = {}
    skipped: Dict[str, int] = {}
    for key, name in enumerate(names):
        if key in skipped_keys:
            skipped[name] = skipped.get(name, 0) + 1
            continue
        rec = counts.get(name)
        if rec is None:
            rec = counts[name] = [0, 0, 0]
        rec[0] += 1
        if failed[key]:
            rec[1] += 1
            rec[2] += latency[key]
    return counts, skipped, outcome.stats
