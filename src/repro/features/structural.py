"""Structural per-flip-flop features (paper section III-B, first group).

All fifteen structural quantities the paper defines: fan-in/fan-out,
transitive flip-flop counts, primary-I/O connection counts, min/avg/max
stage proximities to primary inputs and outputs, bus membership
(position/length, recovered from the ``name[index]`` bit-naming convention
of the synthesized netlist), constant-driver connections, and feedback-loop
presence/depth.

The graph quantities come from a :class:`~repro.features.vectorized.CircuitStats`
container — computed by the batched engine
(:func:`~repro.features.vectorized.compute_circuit_stats`) unless the caller
passes one, such as the networkx traversal reference
(:meth:`~repro.features.graph.CircuitGraph.stats`); both yield identical
feature values.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.core import Netlist
from .vectorized import CircuitStats, compute_circuit_stats

__all__ = ["STRUCTURAL_FEATURES", "bus_membership", "extract_structural"]

STRUCTURAL_FEATURES: Tuple[str, ...] = (
    "ff_fan_in",
    "ff_fan_out",
    "total_ffs_from",
    "total_ffs_to",
    "conn_from_primary_input",
    "conn_to_primary_output",
    "proximity_from_pi_min",
    "proximity_from_pi_avg",
    "proximity_from_pi_max",
    "proximity_to_po_min",
    "proximity_to_po_avg",
    "proximity_to_po_max",
    "part_of_bus",
    "bus_position",
    "bus_length",
    "conn_to_const_drivers",
    "has_feedback_loop",
    "feedback_loop_depth",
)

_BUS_RE = re.compile(r"^(?P<base>.+)\[(?P<index>\d+)\]$")


def bus_membership(ff_names: Sequence[str]) -> Dict[str, Tuple[int, int, int]]:
    """Recover ``(part_of_bus, position, length)`` per flip-flop from names.

    Flip-flop instances are named after the register bit they implement
    (``ff_rx_crc[7]``); bits sharing a base name form a bus.  Singleton
    "buses" are treated as scalars, mirroring how a netlist-based extractor
    would see a one-bit register.
    """
    groups: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    scalar: List[str] = []
    for name in ff_names:
        match = _BUS_RE.match(name)
        if match:
            groups[match.group("base")].append((int(match.group("index")), name))
        else:
            scalar.append(name)
    result: Dict[str, Tuple[int, int, int]] = {}
    for base, bits in groups.items():
        if len(bits) == 1:
            result[bits[0][1]] = (0, -1, 0)
            continue
        length = len(bits)
        for index, name in bits:
            result[name] = (1, index, length)
    for name in scalar:
        result[name] = (0, -1, 0)
    return result


def _stats(values: Sequence[int]) -> Tuple[float, float, float]:
    """(min, avg, max) with the paper's -1 sentinel for empty sets."""
    if not values:
        return (-1.0, -1.0, -1.0)
    return (float(min(values)), sum(values) / len(values), float(max(values)))


def extract_structural(
    netlist: Netlist, stats: Optional[CircuitStats] = None
) -> Dict[str, Dict[str, float]]:
    """Structural feature dict per flip-flop name."""
    if stats is None:
        stats = compute_circuit_stats(netlist)
    buses = bus_membership(stats.ff_names)

    features: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(stats.ff_names):
        pi_min, pi_avg, pi_max = _stats(stats.pi_distances[i])
        po_min, po_avg, po_max = _stats(stats.po_distances[i])
        loop_depth = stats.feedback_depth[i]
        part, position, length = buses[name]
        features[name] = {
            "ff_fan_in": float(stats.ff_fan_in[i]),
            "ff_fan_out": float(stats.ff_fan_out[i]),
            "total_ffs_from": float(stats.total_from[i]),
            "total_ffs_to": float(stats.total_to[i]),
            "conn_from_primary_input": float(stats.conn_from_pi[i]),
            "conn_to_primary_output": float(stats.conn_to_po[i]),
            "proximity_from_pi_min": pi_min,
            "proximity_from_pi_avg": pi_avg,
            "proximity_from_pi_max": pi_max,
            "proximity_to_po_min": po_min,
            "proximity_to_po_avg": po_avg,
            "proximity_to_po_max": po_max,
            "part_of_bus": float(part),
            "bus_position": float(position),
            "bus_length": float(length),
            "conn_to_const_drivers": float(stats.const_drivers[i]),
            "has_feedback_loop": 1.0 if loop_depth > 0 else 0.0,
            "feedback_loop_depth": float(loop_depth),
        }
    return features
