"""Batched (vectorized) netlist statistics for the feature extractor.

The seed extractor walked a networkx cone per flip-flop — thousands of
Python graph traversals on the paper-scale MAC.  This module computes the
same per-flip-flop quantities from whole-netlist reachability masks instead:

* the **forward source masks** of :func:`repro.netlist.levelize.source_masks`
  (which flip-flops / primary inputs can influence each net) give fan-in
  cones, and the mirror-image **sink masks**
  (:func:`repro.netlist.levelize.sink_masks`) give fan-out cones — one pass
  over the netlist each, instead of one traversal per flip-flop;
* per-cell cone membership counts (combinational fan-in/fan-out, constant
  drivers) reduce to column popcounts over those masks, evaluated with
  NumPy ``unpackbits``;
* the flip-flop-level graph is held as adjacency bitsets, over which the
  transitive closure (SCC condensation + bitset DP), the per-primary-I/O
  stage-distance BFS sweeps and the feedback-loop search all run without
  touching networkx.

:class:`CircuitStats` is the engine-neutral result container; the networkx
:class:`~repro.features.graph.CircuitGraph` can produce the same container
(`CircuitGraph.stats()`), which the test suite uses as a differential
reference — the two engines must agree bit-for-bit on every circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..netlist.core import Netlist
from ..netlist.levelize import iter_bits, sink_masks, source_masks, transpose_masks
from ..sim.logic import unpack_words

__all__ = ["CircuitStats", "compute_circuit_stats"]


@dataclass
class CircuitStats:
    """Per-flip-flop graph quantities feeding the structural/synthesis groups.

    All lists are indexed by position in ``netlist.flip_flops()`` order
    (``ff_names`` gives the name per index).  ``pi_distances`` /
    ``po_distances`` hold one stage-distance entry per reaching primary
    input / reachable primary output, in primary-port declaration order —
    the same order the networkx reference produces, so aggregate features
    match exactly.
    """

    ff_names: List[str]
    ff_fan_in: List[int]
    ff_fan_out: List[int]
    total_from: List[int]
    total_to: List[int]
    conn_from_pi: List[int]
    conn_to_po: List[int]
    pi_distances: List[List[int]]
    po_distances: List[List[int]]
    const_drivers: List[int]
    feedback_depth: List[int]
    drive_strength: List[int]
    comb_fan_in: List[int]
    comb_fan_out: List[int]
    comb_path_depth: List[int]

    @property
    def n_ffs(self) -> int:
        return len(self.ff_names)


# ------------------------------------------------------------------ helpers


def _strongly_connected_components(succ: List[int]) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan over adjacency bitsets.

    Returns ``(scc_of, components)`` with components emitted in reverse
    topological order (every component precedes its predecessors), exactly
    like networkx's condensation topological sort reversed.
    """
    n = len(succ)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    scc_of = [-1] * n
    components: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter_bits(succ[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if index_of[nxt] == -1:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter_bits(succ[nxt])))
                    advanced = True
                    break
                if on_stack[nxt]:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = len(components)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return scc_of, components


def _bfs_distances(
    start_mask: int, adjacency: List[int], record: List[List[int]]
) -> None:
    """Level-order sweep from *start_mask* (distance 1), appending the
    distance of every newly reached flip-flop to its ``record`` list."""
    frontier = start_mask
    visited = frontier
    dist = 1
    while frontier:
        for i in iter_bits(frontier):
            record[i].append(dist)
        nxt = 0
        for i in iter_bits(frontier):
            nxt |= adjacency[i]
        frontier = nxt & ~visited
        visited |= frontier
        dist += 1


# --------------------------------------------------------------- main entry


def compute_circuit_stats(netlist: Netlist) -> CircuitStats:
    """Compute every structural/synthesis graph quantity in batched passes."""
    flip_flops = netlist.flip_flops()
    ff_names = [ff.name for ff in flip_flops]
    n_ff = len(ff_names)
    clock_nets = set(netlist.clocks)

    net_ff_mask, net_input_mask = source_masks(netlist)
    ff_sink_mask, out_sink_mask = sink_masks(netlist)

    # Per-FF input-cone source masks (backward from D/RN, clock excluded).
    in_ff_mask: List[int] = []
    in_pi_mask: List[int] = []
    for ff in flip_flops:
        fm = im = 0
        for net in ff.data_input_nets():
            if net in clock_nets:
                continue
            fm |= net_ff_mask.get(net, 0)
            im |= net_input_mask.get(net, 0)
        in_ff_mask.append(fm)
        in_pi_mask.append(im)

    q_nets = [ff.output_net() for ff in flip_flops]
    ff_fan_in = [m.bit_count() for m in in_ff_mask]
    conn_from_pi = [m.bit_count() for m in in_pi_mask]
    ff_fan_out = [ff_sink_mask.get(q, 0).bit_count() for q in q_nets]
    conn_to_po = [out_sink_mask.get(q, 0).bit_count() for q in q_nets]

    # Cone-membership counts over combinational cells (ties counted apart).
    comb_cells = [c for c in netlist.combinational_cells() if not c.is_tie]
    tie_cells = [c for c in netlist.combinational_cells() if c.is_tie]
    comb_fan_in = unpack_words(
        [ff_sink_mask.get(c.output_net(), 0) for c in comb_cells], n_ff
    ).sum(axis=0).tolist()
    comb_fan_out = unpack_words(
        [net_ff_mask.get(c.output_net(), 0) for c in comb_cells], n_ff
    ).sum(axis=0).tolist()
    const_drivers = [0] * n_ff
    for tie in tie_cells:
        for i in iter_bits(ff_sink_mask.get(tie.output_net(), 0)):
            const_drivers[i] += 1

    # Flip-flop-level graph as adjacency bitsets: edge i -> j iff i's Q lies
    # in the combinational fan-in cone of j's D/RN.
    pred = in_ff_mask
    succ = transpose_masks(pred, n_ff)

    # Transitive closure on the SCC condensation (bitset DP, as before).
    scc_of, components = _strongly_connected_components(succ)
    n_scc = len(components)
    sizes = [len(c) for c in components]
    scc_succ = [0] * n_scc
    for i in range(n_ff):
        si = scc_of[i]
        for j in iter_bits(succ[i]):
            sj = scc_of[j]
            if sj != si:
                scc_succ[si] |= 1 << sj
    scc_pred = transpose_masks(scc_succ, n_scc)

    # Components arrive successors-first, so reach_down resolves in emitted
    # order and reach_up in the reverse.
    reach_down = [0] * n_scc
    for s in range(n_scc):
        bits = 0
        for t in iter_bits(scc_succ[s]):
            bits |= reach_down[t] | (1 << t)
        reach_down[s] = bits
    reach_up = [0] * n_scc
    for s in range(n_scc - 1, -1, -1):
        bits = 0
        for t in iter_bits(scc_pred[s]):
            bits |= reach_up[t] | (1 << t)
        reach_up[s] = bits

    # Weighted popcount: singleton components count one each, so only the
    # members of multi-member components need a per-bit size lookup.
    multi_member = 0
    for s, size in enumerate(sizes):
        if size > 1:
            multi_member |= 1 << s
    singletons = ((1 << n_scc) - 1) ^ multi_member

    def population(bits: int) -> int:
        total = (bits & singletons).bit_count()
        for s in iter_bits(bits & multi_member):
            total += sizes[s]
        return total

    total_from = [0] * n_ff
    total_to = [0] * n_ff
    on_cycle = [False] * n_ff
    down_pop = [population(bits) for bits in reach_down]
    up_pop = [population(bits) for bits in reach_up]
    for i in range(n_ff):
        s = scc_of[i]
        own = sizes[s]
        self_loop = bool((succ[i] >> i) & 1)
        own_count = own if own > 1 else (1 if self_loop else 0)
        total_to[i] = down_pop[s] + own_count
        total_from[i] = up_pop[s] + own_count
        on_cycle[i] = own > 1 or self_loop

    # Stage distances: one bitset BFS per (non-clock) primary input over the
    # successor masks, one per primary output over the predecessor masks.
    pi_direct = transpose_masks(in_pi_mask, len(netlist.inputs))
    pi_distances: List[List[int]] = [[] for _ in range(n_ff)]
    for p, net in enumerate(netlist.inputs):
        if net in clock_nets:
            continue
        _bfs_distances(pi_direct[p], succ, pi_distances)
    po_distances: List[List[int]] = [[] for _ in range(n_ff)]
    for net in netlist.outputs:
        _bfs_distances(net_ff_mask.get(net, 0), pred, po_distances)

    # Minimum feedback depth: level sweep from each on-cycle FF's successors.
    feedback_depth = [-1] * n_ff
    for i in range(n_ff):
        if not on_cycle[i]:
            continue
        frontier = succ[i]
        if (frontier >> i) & 1:
            feedback_depth[i] = 1
            continue
        visited = frontier
        depth = 1
        while frontier:
            depth += 1
            nxt = 0
            for j in iter_bits(frontier):
                nxt |= succ[j]
            if (nxt >> i) & 1:
                feedback_depth[i] = depth
                break
            frontier = nxt & ~visited
            visited |= frontier

    # Longest combinational chain downstream of each net, sinks-first.
    depth_down: Dict[str, int] = {}

    def net_depth(net_name: str) -> int:
        best = 0
        for sink in netlist.nets[net_name].sinks:
            cell = netlist.cells[sink.cell]
            if cell.is_sequential:
                continue
            best = max(best, 1 + depth_down[cell.output_net()])
        return best

    for cell_name in reversed(netlist.topological_comb_order()):
        out = netlist.cells[cell_name].output_net()
        depth_down[out] = net_depth(out)
    comb_path_depth = [net_depth(q) for q in q_nets]

    return CircuitStats(
        ff_names=ff_names,
        ff_fan_in=ff_fan_in,
        ff_fan_out=ff_fan_out,
        total_from=total_from,
        total_to=total_to,
        conn_from_pi=conn_from_pi,
        conn_to_po=conn_to_po,
        pi_distances=pi_distances,
        po_distances=po_distances,
        const_drivers=const_drivers,
        feedback_depth=feedback_depth,
        drive_strength=[ff.drive for ff in flip_flops],
        comb_fan_in=comb_fan_in,
        comb_fan_out=comb_fan_out,
        comb_path_depth=comb_path_depth,
    )
