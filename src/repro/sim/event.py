"""Event-driven gate-level simulator with three-valued (0/1/X) logic.

This engine plays the role of the commercial HDL simulator in the paper's
flow: a general-purpose, delay-aware, X-propagating reference simulator.  It
is used for small designs, for cross-checking the compiled cycle simulator,
and for experiments that need unknown-state propagation (e.g. start-up before
reset).  The fault campaigns use :class:`~repro.sim.compiled.CompiledSimulator`
instead, which is orders of magnitude faster but strictly two-valued.

The timing model is unit-delay: every gate output changes one time unit after
an input event; flip-flops sample D on the rising edge of their CK net and
drive Q one unit later.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..netlist.core import Cell, Netlist
from .logic import ONE, X, ZERO, LogicValue, eval3

__all__ = ["EventDrivenSimulator", "ClockGenerator"]

GATE_DELAY = 1


@dataclass(order=True)
class _Event:
    time: int
    serial: int
    net: str = field(compare=False)
    value: LogicValue = field(compare=False)


@dataclass
class ClockGenerator:
    """Square-wave description for a clock input net."""

    net: str
    period: int = 10
    start: int = 0

    def edges_until(self, t_end: int) -> List[Tuple[int, LogicValue]]:
        """All (time, value) transitions in ``[start, t_end)``."""
        events = []
        half = self.period // 2
        time = self.start
        value = ONE
        while time < t_end:
            events.append((time, value))
            value = ONE - value
            time += half
        return events


class EventDrivenSimulator:
    """Unit-delay, three-valued, event-driven simulator.

    All nets start at X, matching a power-up state before reset — the paper's
    testbench likewise begins with a reset phase before streaming frames.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self.time = 0
        self.values: Dict[str, LogicValue] = {name: X for name in netlist.nets}
        self._queue: List[_Event] = []
        self._serial = 0
        self._probes: Dict[str, List[Callable[[int, str, LogicValue], None]]] = {}
        # Combinational fanout: net -> cells re-evaluated when the net changes.
        self._comb_fanout: Dict[str, List[Cell]] = {name: [] for name in netlist.nets}
        # Sequential fanout: clock net -> flip-flops sampled on its rising edge.
        self._clock_fanout: Dict[str, List[Cell]] = {}
        for cell in netlist.iter_cells():
            if cell.is_sequential:
                self._clock_fanout.setdefault(cell.connections["CK"], []).append(cell)
            else:
                for net in cell.input_nets():
                    self._comb_fanout[net].append(cell)
        # Tie cells never get input events; fire them once at t=0.
        for cell in netlist.iter_cells():
            if cell.ctype.is_tie:
                self.schedule(0, cell.output_net(), cell.ctype.evaluate([], mask=1))

    # ------------------------------------------------------------ scheduling

    def schedule(self, time: int, net: str, value: LogicValue) -> None:
        """Queue a value change on *net* at absolute *time*."""
        if time < self.time:
            raise ValueError(f"cannot schedule in the past ({time} < {self.time})")
        self._serial += 1
        heapq.heappush(self._queue, _Event(time, self._serial, net, value))

    def set_input(self, net: str, value: LogicValue, delay: int = 0) -> None:
        """Drive a primary input at ``now + delay``."""
        if not self.netlist.nets[net].is_input:
            raise ValueError(f"{net!r} is not a primary input")
        self.schedule(self.time + delay, net, value)

    def add_probe(self, net: str, callback: Callable[[int, str, LogicValue], None]) -> None:
        """Invoke *callback(time, net, value)* whenever *net* changes."""
        self._probes.setdefault(net, []).append(callback)

    # --------------------------------------------------------------- running

    def run_until(self, t_end: int) -> None:
        """Process events up to and including time *t_end*."""
        while self._queue and self._queue[0].time <= t_end:
            event = heapq.heappop(self._queue)
            self.time = event.time
            self._apply(event)
        self.time = max(self.time, t_end)

    def run_idle(self, t_limit: int = 1_000_000) -> None:
        """Run until the event queue drains (or *t_limit* is reached)."""
        while self._queue and self._queue[0].time <= t_limit:
            event = heapq.heappop(self._queue)
            self.time = event.time
            self._apply(event)

    def _apply(self, event: _Event) -> None:
        old = self.values[event.net]
        if old == event.value:
            return
        self.values[event.net] = event.value
        for callback in self._probes.get(event.net, ()):
            callback(self.time, event.net, event.value)
        for cell in self._comb_fanout[event.net]:
            inputs = [self.values[n] for n in cell.input_nets()]
            new_out = eval3(cell.ctype, inputs)
            out_net = cell.output_net()
            if new_out != self.values[out_net] or self._pending_on(out_net):
                self.schedule(self.time + GATE_DELAY, out_net, new_out)
        if event.net in self._clock_fanout and old != ONE and event.value == ONE:
            for ff in self._clock_fanout[event.net]:
                self._clock_ff(ff)

    def _pending_on(self, net: str) -> bool:
        return any(e.net == net for e in self._queue)

    def _clock_ff(self, ff: Cell) -> None:
        d_value = self.values[ff.connections["D"]]
        rn_net = ff.connections.get("RN")
        if rn_net is not None:
            rn_value = self.values[rn_net]
            if rn_value == ZERO:
                d_value = ZERO
            elif rn_value == X and d_value != ZERO:
                d_value = X
        self.schedule(self.time + GATE_DELAY, ff.output_net(), d_value)

    # ------------------------------------------------------------- observing

    def get(self, net: str) -> LogicValue:
        return self.values[net]

    def get_word(self, bus: str, width: int) -> Optional[int]:
        """Read ``bus[0..width-1]`` as an integer; ``None`` if any bit is X."""
        word = 0
        for bit in range(width):
            value = self.values[f"{bus}[{bit}]"]
            if value == X:
                return None
            word |= value << bit
        return word

    # ----------------------------------------------------------- conveniences

    def run_clocked(
        self,
        clock: ClockGenerator,
        n_cycles: int,
        stimulus: Optional[Callable[[int, "EventDrivenSimulator"], Mapping[str, LogicValue]]] = None,
        sample: Optional[Callable[[int, "EventDrivenSimulator"], None]] = None,
    ) -> None:
        """Drive *clock* for *n_cycles*, applying per-cycle stimulus.

        ``stimulus(cycle, sim)`` returns input assignments applied shortly
        after each falling edge (safely away from the sampling edge);
        ``sample(cycle, sim)`` is called just before each rising edge.
        """
        half = clock.period // 2
        for time, value in clock.edges_until(clock.start + n_cycles * clock.period):
            cycle = (time - clock.start) // clock.period
            if value == ONE:
                self.run_until(time - 1)
                if sample is not None:
                    sample(cycle, self)
            self.schedule(time, clock.net, value)
            if value == ZERO and stimulus is not None:
                assignments = stimulus(cycle, self)
                for net, logic_value in (assignments or {}).items():
                    self.schedule(time + 1, net, logic_value)
            self.run_until(time + half - 2)
        self.run_idle()
