"""Tiny independent reference interpreter for mapped netlists.

This is the referee of the differential harness: a deliberately naive,
one-lane-per-run, two-valued simulator that evaluates cells straight off the
:class:`~repro.netlist.core.Netlist` and shares **no evaluation code** with
either production simulator.  In particular it does not use the compiled
simulator's expression templates, the cell library's bit-parallel
``function`` callables or the event engine's ``eval3`` — each cell archetype
is re-specified here from its published truth behaviour.  A bug in any of
those layers therefore cannot cancel out: it shows up as a divergence.

Being naive is the point; correctness properties of the oracle:

* combinational settle is a fix-point sweep over the cells in arbitrary
  order, repeated until nothing changes (no levelization to get wrong);
* flip-flops latch two-phase (all D values are read before any Q is
  written), with the synchronous active-low reset folded in;
* clock nets are held at 0 — a call to :meth:`OracleSimulator.tick` *is*
  the rising edge, matching the cycle-based contract of the compiled engine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

from ..netlist.core import Cell, Netlist

__all__ = ["OracleSimulator", "ORACLE_FUNCTIONS"]


def _o_inv(a: Sequence[int]) -> int:
    return 0 if a[0] else 1


def _o_buf(a: Sequence[int]) -> int:
    return 1 if a[0] else 0


def _o_and(a: Sequence[int]) -> int:
    return 1 if all(a) else 0


def _o_nand(a: Sequence[int]) -> int:
    return 0 if all(a) else 1


def _o_or(a: Sequence[int]) -> int:
    return 1 if any(a) else 0


def _o_nor(a: Sequence[int]) -> int:
    return 0 if any(a) else 1


def _o_xor2(a: Sequence[int]) -> int:
    return 1 if a[0] != a[1] else 0


def _o_xnor2(a: Sequence[int]) -> int:
    return 1 if a[0] == a[1] else 0


def _o_mux2(a: Sequence[int]) -> int:
    # MUX2(A, B, S) selects B when S else A.
    return a[1] if a[2] else a[0]


def _o_aoi21(a: Sequence[int]) -> int:
    return 0 if ((a[0] and a[1]) or a[2]) else 1


def _o_aoi22(a: Sequence[int]) -> int:
    return 0 if ((a[0] and a[1]) or (a[2] and a[3])) else 1


def _o_oai21(a: Sequence[int]) -> int:
    return 0 if ((a[0] or a[1]) and a[2]) else 1


def _o_oai22(a: Sequence[int]) -> int:
    return 0 if ((a[0] or a[1]) and (a[2] or a[3])) else 1


def _o_tie0(a: Sequence[int]) -> int:
    return 0


def _o_tie1(a: Sequence[int]) -> int:
    return 1


#: Independent scalar truth functions per library cell archetype.
ORACLE_FUNCTIONS: Dict[str, Callable[[Sequence[int]], int]] = {
    "INV": _o_inv,
    "BUF": _o_buf,
    "AND2": _o_and,
    "AND3": _o_and,
    "AND4": _o_and,
    "NAND2": _o_nand,
    "NAND3": _o_nand,
    "NAND4": _o_nand,
    "OR2": _o_or,
    "OR3": _o_or,
    "OR4": _o_or,
    "NOR2": _o_nor,
    "NOR3": _o_nor,
    "NOR4": _o_nor,
    "XOR2": _o_xor2,
    "XNOR2": _o_xnor2,
    "MUX2": _o_mux2,
    "AOI21": _o_aoi21,
    "AOI22": _o_aoi22,
    "OAI21": _o_oai21,
    "OAI22": _o_oai22,
    "TIE0": _o_tie0,
    "TIE1": _o_tie1,
}


class OracleSimulator:
    """One-lane, two-valued reference interpreter over a :class:`Netlist`.

    The external protocol intentionally mirrors
    :class:`~repro.sim.compiled.CompiledSimulator` (``reset`` /
    ``set_input`` / ``eval_comb`` / ``tick``) so the differential harness can
    drive both with the same stimulus loop, but the implementation is
    completely separate.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self.values: Dict[str, int] = {name: 0 for name in netlist.nets}
        self._comb: List[Cell] = []
        self._ffs: List[Cell] = []
        for cell in netlist.iter_cells():
            if cell.is_sequential:
                self._ffs.append(cell)
            else:
                fn = ORACLE_FUNCTIONS.get(cell.ctype.name)
                if fn is None:
                    raise ValueError(
                        f"oracle has no reference model for cell {cell.ctype.name!r}"
                    )
                self._comb.append(cell)

    # ---------------------------------------------------------------- control

    def reset(self, ff_value: int = 0) -> None:
        """Zero every net, force flip-flop outputs to *ff_value*, settle."""
        for name in self.values:
            self.values[name] = 0
        bit = 1 if ff_value else 0
        for ff in self._ffs:
            self.values[ff.output_net()] = bit
        self.eval_comb()

    def set_input(self, name: str, bit: int) -> None:
        if not self.netlist.nets[name].is_input:
            raise ValueError(f"{name!r} is not a primary input")
        self.values[name] = 1 if bit else 0

    def apply_inputs(self, assignments: Mapping[str, int]) -> None:
        for name, bit in assignments.items():
            self.set_input(name, bit)

    def eval_comb(self) -> None:
        """Settle combinational logic by sweeping to a fix point."""
        values = self.values
        for clock in self.netlist.clocks:
            values[clock] = 0
        for _sweep in range(len(self._comb) + 1):
            changed = False
            for cell in self._comb:
                fn = ORACLE_FUNCTIONS[cell.ctype.name]
                new = fn([values[n] for n in cell.input_nets()])
                out = cell.connections[cell.ctype.output]
                if values[out] != new:
                    values[out] = new
                    changed = True
            if not changed:
                return
        raise RuntimeError(
            f"oracle failed to reach a fix point on {self.netlist.name!r} "
            "(combinational cycle?)"
        )

    def tick(self) -> None:
        """Rising clock edge: two-phase latch of D (gated by sync RN)."""
        staged: List[int] = []
        for ff in self._ffs:
            d = self.values[ff.connections["D"]]
            rn_net = ff.connections.get("RN")
            if rn_net is not None and self.values[rn_net] == 0:
                d = 0
            staged.append(d)
        for ff, q in zip(self._ffs, staged):
            self.values[ff.output_net()] = q

    # -------------------------------------------------------------- observing

    def get(self, net_name: str) -> int:
        return self.values[net_name]

    def output_vector(self) -> int:
        packed = 0
        for j, name in enumerate(self.netlist.outputs):
            packed |= self.values[name] << j
        return packed

    # --------------------------------------------------------- fault plumbing

    def ff_state_packed(self) -> int:
        """Packed Q state, bit *i* = ``netlist.flip_flops()[i]``."""
        packed = 0
        for i, ff in enumerate(self._ffs):
            packed |= self.values[ff.output_net()] << i
        return packed

    def load_ff_state_packed(self, packed: int) -> None:
        for i, ff in enumerate(self._ffs):
            self.values[ff.output_net()] = (packed >> i) & 1

    def flip_ff(self, index: int) -> None:
        """Invert one stored flip-flop bit (the SEU primitive)."""
        net = self._ffs[index].output_net()
        self.values[net] ^= 1
