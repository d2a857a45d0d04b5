"""Campaign results: per-flip-flop counters and their serialized form.

The paper's reference data are per-flip-flop SEU campaigns ("for each of
the 1054 flip-flops 170 fault injection simulations were performed").
:class:`~repro.campaigns.executor.CampaignEngine` runs them and returns a
:class:`CampaignResult`: one :class:`FlipFlopResult` (injections, failures,
latency sum) per targeted flip-flop plus the engine-cost fields, which the
result store and the dataset cache persist through
:meth:`CampaignResult.to_payload`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .fdr import FdrEstimate

__all__ = ["FlipFlopResult", "CampaignResult"]


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
