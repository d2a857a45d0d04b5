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
        """Derive activity statistics from a recorded golden trajectory."""
        ones = trace.ff_ones_counts()
        n = max(trace.n_cycles, 1)
        return cls(
            ff_names=list(trace.ff_names),
            at_zero=[(n - c) / n for c in ones],
            at_one=[c / n for c in ones],
            state_changes=trace.ff_toggle_counts(),
            n_cycles=trace.n_cycles,
        )


@dataclass(frozen=True)
class NetActivity:
    """Activity of one net over a workload run."""

    at_one: float
    toggle_rate: float


def collect_net_activity(netlist: Netlist, golden: GoldenTrace) -> Dict[str, NetActivity]:
    """Per-net @1 ratios and toggle rates over a fault-free workload run.

    The flip-flop-level golden trace only records register outputs; the
    extended feature set also needs *every* net (internal combinational ones
    included) to estimate signal probabilities in a flip-flop's fan-in cone.
    Each net's golden row (:meth:`GoldenTrace.net_rows`) gives its cycles at
    1; a toggle is a cycle whose value differs from the cycle before, the
    first cycle's from the reset-settled value.
    """
    sim = CompiledSimulator(netlist, n_lanes=1)
    sim.reset()
    rows = golden.net_rows(sim)
    mask = (1 << golden.n_cycles) - 1
    n = max(golden.n_cycles, 1)
    activity = {}
    for name, idx in sim.net_index.items():
        row = rows[idx]
        changed = (row ^ (row << 1 | sim.values[idx])) & mask
        activity[name] = NetActivity(row.bit_count() / n, changed.bit_count() / n)
    return activity
