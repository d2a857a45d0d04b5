"""Signal-activity analysis.

The paper's *dynamic* features come from "simulating the gate-level netlist
with the corresponding testbench and tracing the signal changes at the output
of the flip-flops".  :class:`ActivityTrace` computes exactly the three
per-flip-flop quantities the paper defines from a recorded
:class:`~repro.sim.testbench.GoldenTrace`:

``@0``
    fraction of the run spent at logic 0,
``@1``
    fraction of the run spent at logic 1,
``state changes``
    number of output transitions (0→1 plus 1→0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netlist.core import Netlist
from .compiled import CompiledSimulator
from .testbench import GoldenTrace

__all__ = ["ActivityTrace", "NetActivity", "collect_net_activity"]


@dataclass
class ActivityTrace:
    """Per-flip-flop signal-activity statistics over a golden run."""

    ff_names: List[str]
    at_zero: List[float]
    at_one: List[float]
    state_changes: List[int]
    n_cycles: int

    @classmethod
    def from_golden(cls, trace: GoldenTrace) -> "ActivityTrace":
        """Derive activity statistics from a recorded golden trajectory.

        The result is cached on the trace object: dynamic-feature extraction
        and dataset assembly may ask for the same statistics several times,
        and the bit-sweep over the packed state vectors is the expensive
        part.  Golden traces are immutable once recorded, so the cache can
        never go stale.
        """
        cached = getattr(trace, "_activity_cache", None)
        if cached is not None:
            return cached
        activity = cls._compute(trace)
        trace._activity_cache = activity  # type: ignore[attr-defined]
        return activity

    @classmethod
    def _compute(cls, trace: GoldenTrace) -> "ActivityTrace":
        ones = trace.ff_ones_counts()
        toggles = trace.ff_toggle_counts()
        n = max(trace.n_cycles, 1)
        return cls(
            ff_names=list(trace.ff_names),
            at_zero=[(n - c) / n for c in ones],
            at_one=[c / n for c in ones],
            state_changes=toggles,
            n_cycles=trace.n_cycles,
        )


@dataclass(frozen=True)
class NetActivity:
    """Activity of one net over a workload run."""

    at_one: float
    toggle_rate: float


def collect_net_activity(netlist: Netlist, golden: GoldenTrace) -> Dict[str, NetActivity]:
    """Per-net @1 ratios and toggle rates over a fault-free workload run.

    The flip-flop-level golden trace only records register outputs; this
    pass replays the trace's applied inputs (loopback values included)
    open loop and observes *every* net (including internal combinational
    ones), which the extended feature set uses to estimate signal
    probabilities in a flip-flop's fan-in cone.
    """
    sim = CompiledSimulator(netlist, n_lanes=1)
    sim.reset()
    n_nets = len(sim.values)
    ones = [0] * n_nets
    toggles = [0] * n_nets
    previous = list(sim.values)
    for vector in golden.applied_inputs:
        for i, name in enumerate(golden.input_names):
            sim.set_input(name, (vector >> i) & 1)
        sim.eval_comb()
        values = sim.values
        for idx in range(n_nets):
            value = values[idx]
            ones[idx] += value
            if value != previous[idx]:
                toggles[idx] += 1
                previous[idx] = value
        sim.tick()
    n = max(golden.n_cycles, 1)
    return {
        name: NetActivity(at_one=ones[idx] / n, toggle_rate=toggles[idx] / n)
        for name, idx in sim.net_index.items()
    }
