"""Graph analysis of a gate-level netlist.

The paper converts the netlist "into a graph representation" so that "graph
algorithms, such as Dijkstra's algorithm to find the shortest path, could be
used to extract the features".  :class:`CircuitGraph` provides that layer:

* per-flip-flop *combinational cones* (backward from the D/RN pins, forward
  from the Q pin), stopping at register boundaries — these yield direct
  fan-in/fan-out, primary-I/O connections, constant-driver counts and
  combinational cell counts;
* a *flip-flop-level graph* (one node per flip-flop, plus primary inputs
  and outputs) whose edges are direct through-combinational connections —
  transitive closures, stage distances (BFS: Dijkstra with unit weights)
  and feedback loops are computed on it.

The clock network is excluded throughout, as in the paper.

Since the vectorized extractor (:mod:`repro.features.vectorized`) became the
default engine, this per-flip-flop traversal path serves as the independent
differential reference: :meth:`CircuitGraph.stats` produces the same
:class:`~repro.features.vectorized.CircuitStats` container, and the test
suite asserts both engines agree exactly on every library circuit.
networkx is imported by the methods that use it, so importing this module
(and :mod:`repro.features`) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..netlist.core import Cell, Netlist

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ConeSummary", "CircuitGraph"]


@dataclass
class ConeSummary:
    """Result of a combinational cone traversal for one flip-flop."""

    ff_sources: Set[str] = field(default_factory=set)
    ff_sinks: Set[str] = field(default_factory=set)
    primary_inputs: Set[str] = field(default_factory=set)
    primary_outputs: Set[str] = field(default_factory=set)
    comb_cells: Set[str] = field(default_factory=set)
    const_drivers: int = 0


class CircuitGraph:
    """Netlist connectivity analysis used by the feature extractor."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.ff_names: List[str] = [ff.name for ff in netlist.flip_flops()]
        self._clock_nets = set(netlist.clocks)
        self.input_cones: Dict[str, ConeSummary] = {}
        self.output_cones: Dict[str, ConeSummary] = {}
        for ff in netlist.flip_flops():
            self.input_cones[ff.name] = self._trace_input_cone(ff)
            self.output_cones[ff.name] = self._trace_output_cone(ff)
        self.ff_graph = self._build_ff_graph()
        self._depth_memo: Dict[str, int] = {}

    # ------------------------------------------------------------- tracing

    def _trace_input_cone(self, ff: Cell) -> ConeSummary:
        """Backward traversal from the FF's data pins to the previous stage."""
        cone = ConeSummary()
        stack = [n for n in ff.data_input_nets() if n not in self._clock_nets]
        visited: Set[str] = set()
        while stack:
            net_name = stack.pop()
            if net_name in visited:
                continue
            visited.add(net_name)
            net = self.netlist.nets[net_name]
            if net.is_input:
                cone.primary_inputs.add(net_name)
                continue
            if net.driver is None:
                continue
            cell = self.netlist.cells[net.driver.cell]
            if cell.is_sequential:
                cone.ff_sources.add(cell.name)
            elif cell.is_tie:
                cone.const_drivers += 1
            else:
                cone.comb_cells.add(cell.name)
                stack.extend(cell.input_nets())
        return cone

    def _trace_output_cone(self, ff: Cell) -> ConeSummary:
        """Forward traversal from the FF's Q pin to the next stage."""
        cone = ConeSummary()
        stack = [ff.output_net()]
        visited: Set[str] = set()
        while stack:
            net_name = stack.pop()
            if net_name in visited:
                continue
            visited.add(net_name)
            net = self.netlist.nets[net_name]
            if net.is_output:
                cone.primary_outputs.add(net_name)
            for sink in net.sinks:
                cell = self.netlist.cells[sink.cell]
                if cell.is_sequential:
                    if sink.pin != "CK":
                        cone.ff_sinks.add(cell.name)
                else:
                    cone.comb_cells.add(cell.name)
                    stack.append(cell.output_net())
        return cone

    # ------------------------------------------------------------ ff graph

    @staticmethod
    def pi_node(name: str) -> str:
        return f"PI:{name}"

    @staticmethod
    def po_node(name: str) -> str:
        return f"PO:{name}"

    def _build_ff_graph(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.ff_names)
        for name, cone in self.output_cones.items():
            for sink in cone.ff_sinks:
                graph.add_edge(name, sink)
            for po in cone.primary_outputs:
                graph.add_edge(name, self.po_node(po))
        for name, cone in self.input_cones.items():
            for pi in cone.primary_inputs:
                graph.add_edge(self.pi_node(pi), name)
        return graph

    def ff_only_graph(self) -> nx.DiGraph:
        """Sub-graph restricted to flip-flop nodes."""
        return self.ff_graph.subgraph(self.ff_names).copy()

    # ------------------------------------------------------ reachability

    def transitive_counts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(total_from, total_to)`` per flip-flop.

        ``total_from[ff]`` counts flip-flops whose faults can reach *ff*'s
        input (ancestors in the FF graph); ``total_to[ff]`` counts
        flip-flops influenced by *ff* (descendants).  Computed on the
        strongly-connected-component condensation with bitset DP so the
        closure is near-linear in practice.
        """
        import networkx as nx

        graph = self.ff_only_graph()
        condensed = nx.condensation(graph)
        order = list(nx.topological_sort(condensed))
        n_scc = condensed.number_of_nodes()
        members: Dict[int, List[str]] = {
            node: list(condensed.nodes[node]["members"]) for node in condensed.nodes
        }
        sizes = {node: len(members[node]) for node in condensed.nodes}

        # reach_down[s] = bitset of SCCs reachable from s (excluding s itself).
        reach_down: Dict[int, int] = {}
        for node in reversed(order):
            bits = 0
            for succ in condensed.successors(node):
                bits |= reach_down[succ] | (1 << succ)
            reach_down[node] = bits
        reach_up: Dict[int, int] = {}
        for node in order:
            bits = 0
            for pred in condensed.predecessors(node):
                bits |= reach_up[pred] | (1 << pred)
            reach_up[node] = bits

        def population(bits: int) -> int:
            total = 0
            while bits:
                low = bits & -bits
                total += sizes[low.bit_length() - 1]
                bits ^= low
            return total

        scc_of = {}
        for node in condensed.nodes:
            for member in members[node]:
                scc_of[member] = node

        total_from: Dict[str, int] = {}
        total_to: Dict[str, int] = {}
        self_loops = {n for n in graph.nodes if graph.has_edge(n, n)}
        for ff in self.ff_names:
            scc = scc_of[ff]
            own = sizes[scc]
            # Members of the same SCC are mutually reachable; a singleton
            # SCC includes itself only via an explicit self-loop.
            own_count = own if own > 1 else (1 if ff in self_loops else 0)
            total_to[ff] = population(reach_down[scc]) + own_count
            total_from[ff] = population(reach_up[scc]) + own_count
        return total_from, total_to

    # --------------------------------------------------------- proximities

    def pi_stage_distances(self) -> Dict[str, List[int]]:
        """Per flip-flop: stage distances from every reaching primary input.

        A direct PI→FF combinational connection is one stage; each further
        register boundary adds one (unit-weight shortest paths — Dijkstra on
        an unweighted graph reduces to BFS).
        """
        import networkx as nx

        distances: Dict[str, List[int]] = {ff: [] for ff in self.ff_names}
        for net in self.netlist.inputs:
            if net in self._clock_nets:
                continue
            source = self.pi_node(net)
            if source not in self.ff_graph:
                continue
            lengths = nx.single_source_shortest_path_length(self.ff_graph, source)
            for node, dist in lengths.items():
                if node in distances and dist >= 1:
                    distances[node].append(dist)
        return distances

    def po_stage_distances(self) -> Dict[str, List[int]]:
        """Per flip-flop: stage distances to every reachable primary output."""
        import networkx as nx

        reversed_graph = self.ff_graph.reverse(copy=False)
        distances: Dict[str, List[int]] = {ff: [] for ff in self.ff_names}
        for net in self.netlist.outputs:
            source = self.po_node(net)
            if source not in reversed_graph:
                continue
            lengths = nx.single_source_shortest_path_length(reversed_graph, source)
            for node, dist in lengths.items():
                if node in distances and dist >= 1:
                    distances[node].append(dist)
        return distances

    # ------------------------------------------------------ feedback loops

    def feedback_depth(self, ff_name: str, reachable_self: bool) -> int:
        """Minimum number of stages around a feedback loop through *ff_name*.

        Returns -1 when the flip-flop is on no cycle.  A comb-only feedback
        (Q feeding the own D cone) has depth 1.
        """
        if not reachable_self:
            return -1
        graph = self.ff_graph
        frontier = [s for s in graph.successors(ff_name) if s in self.input_cones]
        if ff_name in frontier:
            return 1
        visited = set(frontier)
        depth = 1
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for succ in graph.successors(node):
                    if succ == ff_name:
                        return depth
                    if succ not in visited and succ in self.input_cones:
                        visited.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
        return -1

    # ---------------------------------------------------------------- SCC

    def self_reachable(self) -> Dict[str, bool]:
        """Per flip-flop: does it lie on a flip-flop-level cycle?

        True when the flip-flop's SCC has more than one member or it carries
        an explicit self-loop edge.
        """
        import networkx as nx

        ff_graph = self.ff_only_graph()
        condensed = nx.condensation(ff_graph)
        result: Dict[str, bool] = {}
        for node in condensed.nodes:
            group = condensed.nodes[node]["members"]
            if len(group) > 1:
                for ff in group:
                    result[ff] = True
            else:
                (ff,) = group
                result[ff] = ff_graph.has_edge(ff, ff)
        return result

    # ------------------------------------------------- stats (differential)

    def stats(self) -> "CircuitStats":
        """The full per-flip-flop quantity set, via the traversal engine.

        Produces the same :class:`~repro.features.vectorized.CircuitStats`
        the vectorized engine computes — the differential-test contract is
        that both containers are equal on any netlist.
        """
        from .vectorized import CircuitStats

        total_from, total_to = self.transitive_counts()
        pi_dist = self.pi_stage_distances()
        po_dist = self.po_stage_distances()
        reachable = self.self_reachable()
        return CircuitStats(
            ff_names=list(self.ff_names),
            ff_fan_in=[len(self.input_cones[n].ff_sources) for n in self.ff_names],
            ff_fan_out=[len(self.output_cones[n].ff_sinks) for n in self.ff_names],
            total_from=[total_from[n] for n in self.ff_names],
            total_to=[total_to[n] for n in self.ff_names],
            conn_from_pi=[len(self.input_cones[n].primary_inputs) for n in self.ff_names],
            conn_to_po=[len(self.output_cones[n].primary_outputs) for n in self.ff_names],
            pi_distances=[pi_dist[n] for n in self.ff_names],
            po_distances=[po_dist[n] for n in self.ff_names],
            const_drivers=[self.input_cones[n].const_drivers for n in self.ff_names],
            feedback_depth=[
                self.feedback_depth(n, reachable[n]) for n in self.ff_names
            ],
            drive_strength=[self.netlist.cells[n].drive for n in self.ff_names],
            comb_fan_in=[len(self.input_cones[n].comb_cells) for n in self.ff_names],
            comb_fan_out=[len(self.output_cones[n].comb_cells) for n in self.ff_names],
            comb_path_depth=[self.comb_depth_from(n) for n in self.ff_names],
        )

    # ------------------------------------------------------------- depths

    def comb_depth_from(self, ff_name: str) -> int:
        """Longest combinational path (gate count) from the FF's output."""
        ff = self.netlist.cells[ff_name]
        return self._net_depth(ff.output_net())

    def _net_depth(self, net_name: str) -> int:
        memo = self._depth_memo
        cached = memo.get(net_name)
        if cached is not None:
            return cached
        memo[net_name] = 0  # breaks pathological recursion; netlist is acyclic
        net = self.netlist.nets[net_name]
        best = 0
        for sink in net.sinks:
            cell = self.netlist.cells[sink.cell]
            if cell.is_sequential:
                continue
            best = max(best, 1 + self._net_depth(cell.output_net()))
        memo[net_name] = best
        return best
