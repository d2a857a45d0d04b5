"""Gate-level netlist data model.

A :class:`Netlist` is a flat (non-hierarchical) mapped design: a set of
primary ports, nets and standard-cell instances from a
:class:`~repro.netlist.cells.CellLibrary`.  This is the substrate everything
else in the reproduction consumes — the simulators, the fault injector and
the feature extractor all operate on this model, exactly as the paper's flow
operates on the post-synthesis gate-level netlist of the 10GE MAC.

Connectivity is stored on the nets: every net knows its single driver (a cell
output pin or a primary input) and all of its sinks (cell input pins and
primary outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .cells import DEFAULT_LIBRARY, CellKind, CellLibrary, CellType

__all__ = [
    "PinRef",
    "Net",
    "Cell",
    "Netlist",
    "NetlistError",
    "NetlistStats",
]


class NetlistError(Exception):
    """Raised for structural violations (double drivers, unknown pins, …)."""


@dataclass(frozen=True)
class PinRef:
    """Reference to one pin of one cell instance."""

    cell: str
    pin: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.cell}.{self.pin}"


@dataclass
class Net:
    """A single-bit wire.

    Attributes
    ----------
    name:
        Unique net name.  Bus bits use the ``base[idx]`` convention, which the
        feature extractor later exploits to recover bus membership.
    driver:
        The cell output pin driving the net, or ``None`` when the net is
        driven by a primary input (``is_input``) or still unconnected.
    sinks:
        Cell input pins reading the net.
    is_input / is_output:
        Whether the net is attached to a primary port.
    """

    name: str
    driver: Optional[PinRef] = None
    sinks: List[PinRef] = field(default_factory=list)
    is_input: bool = False
    is_output: bool = False

    @property
    def has_driver(self) -> bool:
        return self.driver is not None or self.is_input

    def fanout(self) -> int:
        """Number of sinks (cell pins plus the primary-output pad, if any)."""
        return len(self.sinks) + (1 if self.is_output else 0)


@dataclass
class Cell:
    """A placed standard-cell instance.

    Attributes
    ----------
    name:
        Unique instance name (hierarchical paths flattened with ``/``).
    ctype:
        The library archetype.
    drive:
        Drive strength (1, 2 or 4 for X1/X2/X4).
    connections:
        Mapping of pin name to net name.  All pins must be connected before
        the netlist validates.
    """

    name: str
    ctype: CellType
    drive: int = 1
    connections: Dict[str, str] = field(default_factory=dict)

    @property
    def type_name(self) -> str:
        return f"{self.ctype.name}_X{self.drive}"

    @property
    def is_sequential(self) -> bool:
        return self.ctype.is_sequential

    @property
    def is_tie(self) -> bool:
        return self.ctype.is_tie

    def input_nets(self) -> List[str]:
        """Nets connected to input pins, in pin order (skips unconnected)."""
        return [self.connections[p] for p in self.ctype.inputs if p in self.connections]

    def output_net(self) -> str:
        try:
            return self.connections[self.ctype.output]
        except KeyError as exc:
            raise NetlistError(f"cell {self.name!r} output is unconnected") from exc

    def data_input_nets(self) -> List[str]:
        """Input nets excluding the clock pin (for sequential cells)."""
        return [
            self.connections[p]
            for p in self.ctype.inputs
            if p != "CK" and p in self.connections
        ]


@dataclass(frozen=True)
class NetlistStats:
    """Summary statistics of a netlist (mirrors a synthesis report)."""

    n_cells: int
    n_combinational: int
    n_sequential: int
    n_tie: int
    n_nets: int
    n_inputs: int
    n_outputs: int
    total_area: float
    max_logic_depth: int


class Netlist:
    """A flat gate-level netlist.

    Parameters
    ----------
    name:
        Design name.
    library:
        Cell library the instances are drawn from; defaults to the bundled
        NanGate-like library.
    """

    def __init__(self, name: str, library: CellLibrary | None = None) -> None:
        self.name = name
        self.library = library if library is not None else DEFAULT_LIBRARY
        self.nets: Dict[str, Net] = {}
        self.cells: Dict[str, Cell] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.clocks: List[str] = []
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------ nets

    def add_net(self, name: str) -> Net:
        """Create (or return the existing) net called *name*."""
        net = self.nets.get(name)
        if net is None:
            net = Net(name=name)
            self.nets[name] = net
            self._topo_cache = None
        return net

    def add_input(self, name: str, *, is_clock: bool = False) -> Net:
        """Declare a primary input (optionally marking it as a clock root)."""
        net = self.add_net(name)
        if net.driver is not None:
            raise NetlistError(f"primary input {name!r} already driven by {net.driver}")
        if not net.is_input:
            net.is_input = True
            self.inputs.append(name)
        if is_clock and name not in self.clocks:
            self.clocks.append(name)
        return net

    def add_output(self, name: str) -> Net:
        """Declare a primary output attached to net *name*."""
        net = self.add_net(name)
        if not net.is_output:
            net.is_output = True
            self.outputs.append(name)
        return net

    # ----------------------------------------------------------------- cells

    def add_cell(
        self,
        name: str,
        type_name: str,
        connections: Dict[str, str],
        *,
        drive: int = 1,
    ) -> Cell:
        """Instantiate a library cell.

        ``connections`` maps pin names to net names; nets are created on
        demand.  Driving an already-driven net raises :class:`NetlistError`.
        """
        if name in self.cells:
            raise NetlistError(f"duplicate cell instance {name!r}")
        ctype = self.library.get(type_name)
        if ctype is None:
            base, drive_from_name = self.library.parse_full_name(type_name)
            ctype = self.library[base]
            drive = drive_from_name
        if drive not in self.library.drive_strengths:
            raise NetlistError(f"cell {name!r}: unsupported drive X{drive}")
        cell = Cell(name=name, ctype=ctype, drive=drive)
        valid_pins = set(ctype.inputs) | set(ctype.outputs)
        for pin, net_name in connections.items():
            if pin not in valid_pins:
                raise NetlistError(f"cell {name!r}: unknown pin {pin!r} on {ctype.name}")
            net = self.add_net(net_name)
            if pin in ctype.outputs:
                if net.driver is not None:
                    raise NetlistError(
                        f"net {net_name!r} has two drivers: {net.driver} and {name}.{pin}"
                    )
                if net.is_input:
                    raise NetlistError(
                        f"net {net_name!r} is a primary input but driven by {name}.{pin}"
                    )
                net.driver = PinRef(name, pin)
            else:
                net.sinks.append(PinRef(name, pin))
            cell.connections[pin] = net_name
        self.cells[name] = cell
        self._topo_cache = None
        return cell

    # ------------------------------------------------------------ inspection

    def flip_flops(self) -> List[Cell]:
        """All sequential cell instances, in deterministic (insertion) order."""
        return [c for c in self.cells.values() if c.is_sequential]

    def flip_flop_names(self) -> List[str]:
        return [c.name for c in self.cells.values() if c.is_sequential]

    def combinational_cells(self) -> List[Cell]:
        return [
            c
            for c in self.cells.values()
            if c.ctype.kind in (CellKind.COMBINATIONAL, CellKind.TIE)
        ]

    def __contains__(self, cell_name: str) -> bool:
        return cell_name in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    # -------------------------------------------------------------- ordering

    def topological_comb_order(self) -> List[str]:
        """Combinational cells sorted so every cell follows its comb drivers.

        Flip-flop outputs and primary inputs are sources; a cycle through
        combinational logic raises :class:`NetlistError` (such netlists are
        not simulatable by the cycle-based engines).
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        comb = self.combinational_cells()
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {c.name: [] for c in comb}
        for cell in comb:
            count = 0
            for net_name in cell.input_nets():
                net = self.nets[net_name]
                if net.driver is None:
                    continue
                driver_cell = self.cells[net.driver.cell]
                if driver_cell.is_sequential:
                    continue
                dependents[driver_cell.name].append(cell.name)
                count += 1
            indegree[cell.name] = count
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(comb):
            stuck = sorted(name for name, deg in indegree.items() if deg > 0)
            raise NetlistError(
                f"combinational cycle involving {len(stuck)} cells, e.g. {stuck[:5]}"
            )
        self._topo_cache = order
        return list(order)

    def logic_depth(self) -> Dict[str, int]:
        """Per-net combinational depth (number of gates from a source)."""
        depth: Dict[str, int] = {}
        for name, net in self.nets.items():
            if net.is_input or (
                net.driver is not None and self.cells[net.driver.cell].is_sequential
            ):
                depth[name] = 0
        for cell_name in self.topological_comb_order():
            cell = self.cells[cell_name]
            in_depth = max((depth.get(n, 0) for n in cell.input_nets()), default=0)
            depth[cell.output_net()] = in_depth + 1
        return depth

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Check structural sanity; raise :class:`NetlistError` on violation.

        Verifies that every net has exactly one driver, every cell pin is
        connected, every primary output is driven, and the combinational
        logic is acyclic.
        """
        for name, net in self.nets.items():
            if not net.has_driver and net.fanout() > 0:
                raise NetlistError(f"net {name!r} has sinks but no driver")
        for cell in self.cells.values():
            for pin in cell.ctype.inputs + cell.ctype.outputs:
                if pin not in cell.connections:
                    raise NetlistError(f"cell {cell.name!r} pin {pin!r} unconnected")
        for out in self.outputs:
            if not self.nets[out].has_driver:
                raise NetlistError(f"primary output {out!r} undriven")
        for ff in self.flip_flops():
            ck = ff.connections.get("CK")
            if ck is None:
                raise NetlistError(f"flip-flop {ff.name!r} has no clock")
        self.topological_comb_order()

    # ------------------------------------------------------------------ misc

    def stats(self) -> NetlistStats:
        """Synthesis-report-style summary of the design."""
        comb = seq = tie = 0
        area = 0.0
        for cell in self.cells.values():
            if cell.is_sequential:
                seq += 1
            elif cell.is_tie:
                tie += 1
            else:
                comb += 1
            area += cell.ctype.area * cell.drive
        depth = self.logic_depth()
        return NetlistStats(
            n_cells=len(self.cells),
            n_combinational=comb,
            n_sequential=seq,
            n_tie=tie,
            n_nets=len(self.nets),
            n_inputs=len(self.inputs),
            n_outputs=len(self.outputs),
            total_area=area,
            max_logic_depth=max(depth.values(), default=0),
        )

    def iter_cells(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Netlist {self.name!r}: {len(self.cells)} cells, "
            f"{len(self.nets)} nets, {len(self.flip_flops())} FFs>"
        )
