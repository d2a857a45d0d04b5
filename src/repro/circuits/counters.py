"""Small sequential building blocks and standalone test circuits.

These serve two roles: reusable pieces inside larger designs (saturating
and wrapping counters, shift registers) and a zoo of small self-contained
circuits used throughout the test suite and examples.
"""

from __future__ import annotations

from typing import List

from ..netlist.core import Netlist
from ..synth.expr import And, Const, Expr, Not, Sig
from ..synth.module import Module
from ..synth.synthesis import synthesize
from ..synth.wordlib import Word, const_word, eq_const, inc, mux_word, reduce_and

__all__ = [
    "add_counter",
    "add_saturating_counter",
    "add_shift_register",
    "add_lfsr",
    "make_counter",
    "make_shift_register",
    "make_lfsr",
    "make_gray_counter",
]

#: Feedback taps (XOR positions) for maximal-length Fibonacci LFSRs.
_LFSR_TAPS = {
    3: (2, 1),
    4: (3, 2),
    5: (4, 2),
    7: (6, 5),
    8: (7, 5, 4, 3),
    16: (15, 14, 12, 3),
}


def add_counter(module: Module, name: str, width: int, enable: Expr, clear: Expr = Const(0)) -> List[Sig]:
    """Wrapping up-counter; *clear* (synchronous) wins over *enable*."""
    count = module.reg_bus(name, width)
    advanced = inc(count, enable)
    module.next(count, mux_word(clear, const_word(0, width), advanced))
    return count


def add_saturating_counter(module: Module, name: str, width: int, enable: Expr) -> List[Sig]:
    """Up-counter that sticks at all-ones instead of wrapping."""
    count = module.reg_bus(name, width)
    at_max = reduce_and(list(count))
    module.next_en(count, And.of(enable, Not.of(at_max)), inc(count))
    return count


def add_shift_register(
    module: Module, name: str, width: int, data_in: Expr, enable: Expr = Const(1)
) -> List[Sig]:
    """Serial-in shift register; bit 0 is the newest sample."""
    stages = module.reg_bus(name, width)
    module.next_en(stages[0], enable, data_in)
    for i in range(1, width):
        module.next_en(stages[i], enable, stages[i - 1])
    return stages


def add_lfsr(module: Module, name: str, width: int, enable: Expr = Const(1)) -> List[Sig]:
    """Fibonacci LFSR with an all-zero lockup escape.

    Registers reset to zero, so the feedback XNORs in the lockup-escape term
    to self-start from the reset state.
    """
    taps = _LFSR_TAPS.get(width)
    if taps is None:
        raise ValueError(f"no tap table for width {width}")
    state = module.reg_bus(name, width)
    feedback: Expr = Const(0)
    for tap in taps:
        feedback = feedback ^ state[tap]
    all_zero = reduce_and([Not.of(bit) for bit in state])
    feedback = feedback ^ all_zero
    module.next_en(state[0], enable, feedback)
    for i in range(1, width):
        module.next_en(state[i], enable, state[i - 1])
    return state


# --------------------------------------------------------------------------
# Stand-alone circuits (synthesized, with primary I/O) for tests/examples.
# --------------------------------------------------------------------------


def make_counter(width: int = 8, name: str = "counter") -> Netlist:
    """Enable-gated wrapping counter with a terminal-count output."""
    module = Module(f"{name}{width}")
    enable = module.input("en")
    clear = module.input("clear")
    count = add_counter(module, "cnt", width, enable, clear)
    module.output_bus("count", count)
    module.output("tc", eq_const(count, (1 << width) - 1))
    return synthesize(module)


def make_shift_register(width: int = 8, name: str = "shiftreg") -> Netlist:
    """Serial-in/parallel-out shift register."""
    module = Module(f"{name}{width}")
    din = module.input("din")
    enable = module.input("en")
    stages = add_shift_register(module, "sr", width, din, enable)
    module.output_bus("q", stages)
    module.output("dout", stages[-1])
    return synthesize(module)


def make_lfsr(width: int = 8, name: str = "lfsr") -> Netlist:
    """Free-running LFSR pseudo-random generator."""
    module = Module(f"{name}{width}")
    enable = module.input("en")
    state = add_lfsr(module, "lfsr", width, enable)
    module.output_bus("prbs", state)
    return synthesize(module)


def make_gray_counter(width: int = 8, name: str = "gray") -> Netlist:
    """Binary counter with a Gray-coded output stage."""
    module = Module(f"{name}{width}")
    enable = module.input("en")
    count = add_counter(module, "bin", width, enable)
    gray: Word = [count[i] ^ count[i + 1] for i in range(width - 1)] + [count[width - 1]]
    module.output_bus("gray", gray)
    return synthesize(module)
