"""Synthesis-attribute features (paper section III-B, second group).

The paper obtains these from Synopsys Design Compiler; here they come from
our own synthesis pass (:mod:`repro.synth`), which records the same
attributes in the mapped netlist:

* **drive strength** selected for the flip-flop by the sizing pass,
* **combinational fan-in** — combinational cells in the input cone up to
  the previous flip-flop stage,
* **combinational fan-out** — combinational cells driven by the output up
  to the next stage,
* **combinational path depth** at the flip-flop's output.

Like the structural group, the quantities are served from a
:class:`~repro.features.vectorized.CircuitStats` container (the batched
engine's unless the caller passes one).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..netlist.core import Netlist
from .vectorized import CircuitStats, compute_circuit_stats

__all__ = ["SYNTHESIS_FEATURES", "extract_synthesis"]

SYNTHESIS_FEATURES: Tuple[str, ...] = (
    "drive_strength",
    "comb_fan_in",
    "comb_fan_out",
    "comb_path_depth",
)


def extract_synthesis(
    netlist: Netlist, stats: Optional[CircuitStats] = None
) -> Dict[str, Dict[str, float]]:
    """Synthesis feature dict per flip-flop name."""
    if stats is None:
        stats = compute_circuit_stats(netlist)
    features: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(stats.ff_names):
        features[name] = {
            "drive_strength": float(stats.drive_strength[i]),
            "comb_fan_in": float(stats.comb_fan_in[i]),
            "comb_fan_out": float(stats.comb_fan_out[i]),
            "comb_path_depth": float(stats.comb_path_depth[i]),
        }
    return features
