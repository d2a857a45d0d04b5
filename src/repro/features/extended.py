"""Extended feature set (paper §V: "further features should be considered").

Four additional per-flip-flop features built from *net-level* activity of a
fault-free workload run — quantities the paper's own citations ([3]-[5])
relate to logical masking, but which its feature set only captures at the
flip-flop outputs:

``d_input_at_one``
    signal probability of the D input net (how often the sampled value is 1);
``d_input_toggle_rate``
    toggle rate of the D input net (how often the FF samples a *new* value —
    a proxy for the fraction of cycles in which an upset is overwritten
    within one cycle);
``cone_avg_toggle_rate``
    mean toggle rate over the nets of the input cone (activity of the logic
    computing the next state);
``fanout_avg_at_one``
    mean signal probability over the nets of the output cone (biased
    downstream logic masks upsets more often — logical de-rating).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..netlist.levelize import iter_bits, sink_masks, source_masks
from ..sim.activity import NetActivity, collect_net_activity
from ..sim.testbench import GoldenTrace
from .dataset import Dataset

__all__ = ["EXTENDED_FEATURES", "comb_cones", "extract_extended", "extend_dataset"]

EXTENDED_FEATURES: Tuple[str, ...] = (
    "d_input_at_one",
    "d_input_toggle_rate",
    "cone_avg_toggle_rate",
    "fanout_avg_at_one",
)


def comb_cones(netlist: Netlist) -> Tuple[List[List[str]], List[List[str]]]:
    """``(input_cones, output_cones)``: per flip-flop (``netlist.flip_flops()``
    order), the combinational cells of its fan-in and fan-out cones.

    A cell lies in flip-flop *i*'s input cone when its output net can reach
    *i*'s D/RN pin (:func:`~repro.netlist.levelize.sink_masks`), and in its
    output cone when *i*'s Q can reach the cell's output net
    (:func:`~repro.netlist.levelize.source_masks`).  Tie cells are constant
    drivers, not cone logic.  Cells are listed in netlist order.
    """
    net_ff_mask, _net_input_mask = source_masks(netlist)
    ff_sink_mask, _out_sink_mask = sink_masks(netlist)
    n_ff = len(netlist.flip_flops())
    input_cones: List[List[str]] = [[] for _ in range(n_ff)]
    output_cones: List[List[str]] = [[] for _ in range(n_ff)]
    for cell in netlist.combinational_cells():
        if cell.is_tie:
            continue
        out = cell.output_net()
        for i in iter_bits(ff_sink_mask.get(out, 0)):
            input_cones[i].append(cell.name)
        for i in iter_bits(net_ff_mask.get(out, 0)):
            output_cones[i].append(cell.name)
    return input_cones, output_cones


def extract_extended(
    netlist: Netlist, net_activity: Dict[str, NetActivity]
) -> Dict[str, Dict[str, float]]:
    """Extended feature dict per flip-flop name."""
    input_cones, output_cones = comb_cones(netlist)
    features: Dict[str, Dict[str, float]] = {}
    for ff, in_cone, out_cone in zip(netlist.flip_flops(), input_cones, output_cones):
        d_activity = net_activity[ff.connections["D"]]
        cone_rates = [
            net_activity[netlist.cells[c].output_net()].toggle_rate for c in in_cone
        ]
        fanout_probs = [
            net_activity[netlist.cells[c].output_net()].at_one for c in out_cone
        ]
        features[ff.name] = {
            "d_input_at_one": d_activity.at_one,
            "d_input_toggle_rate": d_activity.toggle_rate,
            "cone_avg_toggle_rate": float(np.mean(cone_rates)) if cone_rates else 0.0,
            "fanout_avg_at_one": float(np.mean(fanout_probs)) if fanout_probs else 0.0,
        }
    return features


def extend_dataset(dataset: Dataset, netlist: Netlist, golden: GoldenTrace) -> Dataset:
    """Append the four extended feature columns to a labelled dataset.

    The net-level activity pass replays the golden run once; rows keep the
    dataset's flip-flop order, and the new columns are registered under the
    ``extended`` feature group for ablations.
    """
    net_activity = collect_net_activity(netlist, golden)
    extended = extract_extended(netlist, net_activity)
    new_columns = np.array(
        [[extended[name][col] for col in EXTENDED_FEATURES] for name in dataset.ff_names],
        dtype=np.float64,
    )
    groups = {g: list(cols) for g, cols in dataset.groups.items()}
    groups["extended"] = list(EXTENDED_FEATURES)
    return Dataset(
        ff_names=list(dataset.ff_names),
        feature_names=list(dataset.feature_names) + list(EXTENDED_FEATURES),
        X=np.hstack([dataset.X, new_columns]),
        y=dataset.y.copy(),
        groups=groups,
        meta=dict(dataset.meta),
    )
