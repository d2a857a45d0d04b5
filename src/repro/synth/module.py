"""Register-transfer-level module abstraction.

A :class:`Module` is the RTL source format of this reproduction: named input
bits, registers with next-state expressions, named combinational wires, and
output expressions.  :func:`repro.synth.synthesis.synthesize` elaborates a
module into a mapped gate-level :class:`~repro.netlist.core.Netlist`.

Registers default to having a synchronous active-low reset wired to the
module-wide ``rst_n`` input (mapped to ``DFFR`` cells); pass
``resettable=False`` for datapath registers that a synthesis tool would
leave without reset (mapped to plain ``DFF``), e.g. FIFO payload bits.

Bus (multi-bit) signals follow the ``name[i]`` bit-name convention used
throughout the code base — the feature extractor later recovers bus
membership, position and length from these names, exactly as the paper does
from its netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .expr import Expr, Mux, Sig

__all__ = ["Module", "RegSpec"]


@dataclass
class RegSpec:
    """One register bit: its next-state expression and reset style."""

    name: str
    next_expr: Optional[Expr] = None
    resettable: bool = True


class Module:
    """An RTL design: ports, registers, wires and output expressions.

    Parameters
    ----------
    name:
        Design name (becomes the netlist/module name).
    clock / reset:
        Names of the clock and active-low synchronous reset inputs.  The
        reset input is created lazily, only if some register is resettable.
    """

    def __init__(self, name: str, clock: str = "clk", reset: str = "rst_n") -> None:
        self.name = name
        self.clock_name = clock
        self.reset_name = reset
        self.input_bits: List[str] = []
        self.output_exprs: Dict[str, Expr] = {}
        self.output_order: List[str] = []
        self.regs: Dict[str, RegSpec] = {}
        self.wires: Dict[str, Expr] = {}
        self._names: set[str] = {clock, reset}

    # ----------------------------------------------------------------- ports

    def _claim(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"signal name {name!r} already in use")
        self._names.add(name)

    def input(self, name: str) -> Sig:
        """Declare a single-bit primary input."""
        self._claim(name)
        self.input_bits.append(name)
        return Sig(name)

    def input_bus(self, name: str, width: int) -> List[Sig]:
        """Declare a *width*-bit input bus ``name[0..width-1]`` (LSB first)."""
        return [self.input(f"{name}[{i}]") for i in range(width)]

    def output(self, name: str, expr: Expr) -> None:
        """Declare a single-bit primary output driven by *expr*."""
        self._claim(name)
        self.output_exprs[name] = expr
        self.output_order.append(name)

    def output_bus(self, name: str, word: Sequence[Expr]) -> None:
        """Declare an output bus driven by the bits of *word*."""
        for i, bit in enumerate(word):
            self.output(f"{name}[{i}]", bit)

    # ------------------------------------------------------------- registers

    def reg(self, name: str, resettable: bool = True) -> Sig:
        """Declare a register bit; next-state defaults to hold."""
        self._claim(name)
        self.regs[name] = RegSpec(name=name, resettable=resettable)
        return Sig(name)

    def reg_bus(self, name: str, width: int, resettable: bool = True) -> List[Sig]:
        """Declare a *width*-bit register bus."""
        return [self.reg(f"{name}[{i}]", resettable=resettable) for i in range(width)]

    def next(self, target: Union[Sig, Sequence[Sig]], value: Union[Expr, Sequence[Expr]]) -> None:
        """Set the next-state expression(s) of a register (bus)."""
        if isinstance(target, Sig):
            targets = [target]
            values = [value]  # type: ignore[list-item]
        else:
            targets = list(target)
            values = list(value)  # type: ignore[arg-type]
            if len(targets) != len(values):
                raise ValueError("next(): target/value width mismatch")
        for sig, expr in zip(targets, values):
            spec = self.regs.get(sig.name)
            if spec is None:
                raise KeyError(f"{sig.name!r} is not a register")
            if spec.next_expr is not None:
                raise ValueError(f"register {sig.name!r} assigned twice")
            spec.next_expr = expr

    def next_en(
        self,
        target: Union[Sig, Sequence[Sig]],
        enable: Expr,
        value: Union[Expr, Sequence[Expr]],
    ) -> None:
        """Set next-state with a load enable (hold when *enable* is low)."""
        if isinstance(target, Sig):
            self.next(target, Mux.of(enable, value, target))  # type: ignore[arg-type]
        else:
            gated = [Mux.of(enable, v, t) for t, v in zip(target, value)]  # type: ignore[arg-type]
            self.next(target, gated)

    # ----------------------------------------------------------------- wires

    def assign(self, name: str, expr: Expr) -> Sig:
        """Name an intermediate expression (single point of reuse)."""
        self._claim(name)
        self.wires[name] = expr
        return Sig(name)

    def assign_bus(self, name: str, word: Sequence[Expr]) -> List[Sig]:
        return [self.assign(f"{name}[{i}]", bit) for i, bit in enumerate(word)]

    # ------------------------------------------------------------ inspection

    @property
    def uses_reset(self) -> bool:
        return any(spec.resettable for spec in self.regs.values())

    def finalize(self) -> None:
        """Default unassigned registers to hold their value."""
        for spec in self.regs.values():
            if spec.next_expr is None:
                spec.next_expr = Sig(spec.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Module {self.name!r}: {len(self.input_bits)} in, "
            f"{len(self.output_order)} out, {len(self.regs)} regs>"
        )
