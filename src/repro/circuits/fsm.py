"""Finite-state-machine builder.

The MAC's transmit and receive engines are control FSMs; this helper builds
binary-encoded state registers with a priority transition list, the way a
synthesis tool encodes an RTL ``case`` statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..netlist.core import Netlist
from ..synth.expr import Expr, Or, Sig
from ..synth.module import Module
from ..synth.synthesis import synthesize
from ..synth.wordlib import Word, const_word, eq_const, mux_word, reduce_and

__all__ = ["FSM", "make_fsm_controller"]


@dataclass
class _Transition:
    source: str
    condition: Expr
    target: str


class FSM:
    """Binary-encoded Moore state machine inside a :class:`Module`.

    Usage::

        fsm = FSM(module, "tx", ["IDLE", "DATA", "CRC"])
        fsm.transition("IDLE", start_cond, "DATA")
        fsm.transition("DATA", end_cond, "CRC")
        fsm.transition("CRC", Const(1), "IDLE")
        in_data = fsm.is_in("DATA")
        fsm.build()

    Transitions from the same source state are prioritized in the order they
    were added (earlier wins); a state with no matching transition holds.
    The reset state is the first state name (encoded as 0, matching the
    registers' reset value).
    """

    def __init__(self, module: Module, prefix: str, states: Sequence[str]) -> None:
        if len(states) < 2:
            raise ValueError("an FSM needs at least two states")
        if len(set(states)) != len(states):
            raise ValueError("duplicate state names")
        self.module = module
        self.prefix = prefix
        self.states = list(states)
        self.encoding: Dict[str, int] = {name: i for i, name in enumerate(self.states)}
        width = max(1, math.ceil(math.log2(len(self.states))))
        self.state_reg: List[Sig] = module.reg_bus(f"{prefix}_state", width)
        self._transitions: List[_Transition] = []
        self._built = False

    @property
    def width(self) -> int:
        return len(self.state_reg)

    def is_in(self, state: str) -> Expr:
        """Expression asserted while the FSM is in *state*."""
        return eq_const(self.state_reg, self.encoding[state])

    def transition(self, source: str, condition: Expr, target: str) -> None:
        """Add a prioritized transition edge."""
        if self._built:
            raise RuntimeError("FSM already built")
        for name in (source, target):
            if name not in self.encoding:
                raise KeyError(f"unknown state {name!r}")
        self._transitions.append(_Transition(source, condition, target))

    def build(self) -> None:
        """Emit the next-state logic.  Call exactly once, after all edges."""
        if self._built:
            raise RuntimeError("FSM already built")
        self._built = True
        next_state: Word = list(self.state_reg)  # default: hold
        # Later-added transitions are applied first in the mux chain so that
        # earlier-added ones override them (priority order).
        for tr in reversed(self._transitions):
            take = self.is_in(tr.source) & tr.condition
            target_word = const_word(self.encoding[tr.target], self.width)
            next_state = mux_word(take, target_word, next_state)
        self.module.next(self.state_reg, next_state)


# --------------------------------------------------------------------------
# Stand-alone circuit (synthesized, with primary I/O) for the library.
# --------------------------------------------------------------------------


def make_fsm_controller(timer_bits: int = 4, name: str = "fsm_ctrl") -> Netlist:
    """Stand-alone run-control FSM with an embedded timer.

    A four-state Moore controller (IDLE → RUN → WAIT/DONE → IDLE) driving a
    *timer_bits*-wide run timer: ``start`` launches a run, ``stop`` pauses
    it, the timer's terminal count completes it, ``ack`` returns to idle.
    Control-dominated logic — the opposite end of the spectrum from the
    datapath-heavy FIFO and CRC circuits.
    """
    from .counters import add_counter

    module = Module(name)
    start = module.input("start")
    stop = module.input("stop")
    ack = module.input("ack")

    fsm = FSM(module, "ctl", ["IDLE", "RUN", "WAIT", "DONE"])
    in_run = fsm.is_in("RUN")
    timer = add_counter(module, "timer", timer_bits, in_run, fsm.is_in("IDLE"))
    at_max = reduce_and(list(timer))

    fsm.transition("IDLE", start, "RUN")
    fsm.transition("RUN", at_max, "DONE")
    fsm.transition("RUN", stop, "WAIT")
    fsm.transition("WAIT", start, "RUN")
    fsm.transition("WAIT", ack, "IDLE")
    fsm.transition("DONE", ack, "IDLE")
    fsm.build()

    module.output("busy", Or.of(in_run, fsm.is_in("WAIT")))
    module.output("done", fsm.is_in("DONE"))
    module.output_bus("count", timer)
    return synthesize(module)
