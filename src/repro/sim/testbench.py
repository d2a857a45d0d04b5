"""Testbench framework for the compiled cycle simulator.

A :class:`Testbench` bundles everything the paper's fault-injection flow
needs to replay a workload deterministically:

* an **input schedule** — the open-loop stimulus (packet writes, read
  strobes, reset), packed one bit per primary input per cycle;
* optional **loopback paths** — reactive connections from DUT outputs back to
  DUT inputs with a fixed delay.  The paper's testbench loops the XGMII TX
  interface back into the XGMII RX interface; modelling this reactively is
  essential, because a fault that corrupts the TX stream must be *seen again*
  by the RX engine rather than overwritten by golden stimulus;
* the **golden trace**: per-cycle packed flip-flop states and primary-output
  vectors recorded from a fault-free run, used both as the fault campaign's
  reference and as the source of the dynamic (signal-activity) features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..netlist.core import Netlist
from .compiled import CompiledSimulator
from .logic import lane_rows

__all__ = ["ScheduleBuilder", "LoopbackPath", "GoldenTrace", "Testbench"]


@dataclass(frozen=True)
class LoopbackPath:
    """A delayed wire from DUT outputs back to DUT inputs.

    ``sources[i]`` (a primary-output net) drives ``targets[i]`` (a primary
    input net) *delay* cycles later.
    """

    sources: Tuple[str, ...]
    targets: Tuple[str, ...]
    delay: int = 1

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.targets):
            raise ValueError("loopback sources/targets length mismatch")
        if self.delay < 1:
            raise ValueError("loopback delay must be >= 1 cycle")


class ScheduleBuilder:
    """Builds a packed open-loop input schedule.

    Values persist until overwritten (level-sensitive semantics), which
    mirrors how a procedural HDL testbench drives DUT inputs.

    Example
    -------
    >>> sb = ScheduleBuilder(["rst_n", "valid"])
    >>> sb.drive(0, "rst_n", 0)
    >>> sb.drive(5, "rst_n", 1)
    >>> sb.pulse(10, "valid")
    >>> packed = sb.compile(12)
    """

    def __init__(self, input_names: Sequence[str]) -> None:
        self.input_names = list(input_names)
        self._index = {name: i for i, name in enumerate(self.input_names)}
        self._changes: Dict[int, Dict[str, int]] = {}
        self.length_hint = 0

    def drive(self, cycle: int, name: str, bit: int) -> None:
        """Set *name* to *bit* from *cycle* onward."""
        if name not in self._index:
            raise KeyError(f"unknown input {name!r}")
        self._changes.setdefault(cycle, {})[name] = 1 if bit else 0
        self.length_hint = max(self.length_hint, cycle + 1)

    def pulse(self, cycle: int, name: str, width: int = 1) -> None:
        """Assert *name* for *width* cycles starting at *cycle*."""
        self.drive(cycle, name, 1)
        self.drive(cycle + width, name, 0)

    def drive_word(self, cycle: int, bus: str, width: int, value: int) -> None:
        """Drive ``bus[0..width-1]`` from an integer at *cycle*."""
        for bit in range(width):
            self.drive(cycle, f"{bus}[{bit}]", (value >> bit) & 1)

    def compile(self, n_cycles: int) -> List[int]:
        """Produce the packed per-cycle input vectors (bit *i* = input *i*)."""
        packed: List[int] = []
        current = [0] * len(self.input_names)
        for cycle in range(n_cycles):
            for name, bit in self._changes.get(cycle, {}).items():
                current[self._index[name]] = bit
            vector = 0
            for i, bit in enumerate(current):
                if bit:
                    vector |= 1 << i
            packed.append(vector)
        return packed


@dataclass
class GoldenTrace:
    """Recorded fault-free run of a testbench.

    Attributes
    ----------
    ff_state:
        ``ff_state[c]`` packs the Q value of every flip-flop (bit *i* = FF
        *i* in ``netlist.flip_flops()`` order) at the *start* of cycle *c*,
        i.e. before that cycle's combinational settle.  One extra entry at
        index ``n_cycles`` holds the final state.
    outputs:
        ``outputs[c]`` packs every primary output (``netlist.outputs``
        order) as observed during cycle *c* after combinational settle.
    applied_inputs:
        The input vector actually applied each cycle, including loopback
        overrides — replaying these open-loop reproduces the run exactly.
    """

    n_cycles: int
    ff_names: List[str]
    input_names: List[str]
    output_names: List[str]
    ff_state: List[int]
    outputs: List[int]
    applied_inputs: List[int]

    def ff_bit(self, ff_index: int, cycle: int) -> int:
        return (self.ff_state[cycle] >> ff_index) & 1

    def ff_rows(self) -> List[int]:
        """Every flip-flop's trajectory, one lane per state: bit *c* of row
        *i* is flip-flop *i* in ``ff_state[c]`` (``n_cycles + 1`` lanes)."""
        return lane_rows(self.ff_state, len(self.ff_names))

    def ff_toggle_counts(self) -> List[int]:
        """Per flip-flop: number of 0→1 and 1→0 transitions over the run."""
        mask = (1 << self.n_cycles) - 1
        return [((row ^ row >> 1) & mask).bit_count() for row in self.ff_rows()]

    def ff_ones_counts(self) -> List[int]:
        """Per flip-flop: number of cycles spent at logic 1."""
        mask = (1 << self.n_cycles) - 1
        return [(row & mask).bit_count() for row in self.ff_rows()]

    def net_rows(self, sim: CompiledSimulator) -> List[int]:
        """Every net's golden value in every cycle, one lane per cycle: bit
        *c* of row *i* is net *i* of *sim* (built on this trace's netlist)
        after the settle of cycle *c*.

        One full settle with lane *c* loaded with cycle *c*'s golden state
        and applied inputs (loopback targets included); *sim*'s own values
        are left alone.
        """
        mask = (1 << self.n_cycles) - 1
        values = [0] * len(sim.values)
        for q, row in zip(sim._ff_q, self.ff_rows()):
            values[q] = row & mask
        inputs = [sim.net_index[name] for name in self.input_names]
        for i, row in zip(inputs, lane_rows(self.applied_inputs, len(inputs))):
            values[i] = row
        for clk in sim._clock_nets:
            values[clk] = 0
        sim._eval_fn(values, mask)
        return values


class Testbench:
    """Deterministic workload driver for a :class:`Netlist`.

    (Despite the name this is a library class, not a pytest test —
    ``__test__`` opts out of test collection.)

    Parameters
    ----------
    netlist:
        Design under test.
    schedule:
        Packed open-loop input vectors from :meth:`ScheduleBuilder.compile`.
    loopbacks:
        Reactive output→input paths (evaluated from the possibly-faulty DUT
        outputs during fault simulation).
    name:
        Label used in reports and cache keys.
    """

    __test__ = False

    def __init__(
        self,
        netlist: Netlist,
        schedule: List[int],
        loopbacks: Sequence[LoopbackPath] = (),
        name: str = "tb",
    ) -> None:
        self.netlist = netlist
        self.schedule = schedule
        self.loopbacks = list(loopbacks)
        self.name = name
        self.input_names = list(netlist.inputs)
        self.output_names = list(netlist.outputs)
        self._in_index = {n: i for i, n in enumerate(self.input_names)}
        self._out_index = {n: i for i, n in enumerate(self.output_names)}
        for path in self.loopbacks:
            for src in path.sources:
                if src not in self._out_index:
                    raise ValueError(f"loopback source {src!r} is not a primary output")
            for dst in path.targets:
                if dst not in self._in_index:
                    raise ValueError(f"loopback target {dst!r} is not a primary input")

    @property
    def n_cycles(self) -> int:
        return len(self.schedule)

    # ---------------------------------------------------------------- golden

    def run_golden(self) -> GoldenTrace:
        """Run the fault-free simulation and record the full trajectory."""
        sim = CompiledSimulator(self.netlist, n_lanes=1)
        sim.reset()
        values = sim.values
        input_rows = list(enumerate(sim.net_index[name] for name in self.input_names))
        ff_state: List[int] = []
        outputs: List[int] = []
        applied: List[int] = []
        # Loopback history: per path, per tap, a list of past output bits.
        history = {
            id(path): [[0] * path.delay for _ in path.sources] for path in self.loopbacks
        }
        for cycle in range(self.n_cycles):
            ff_state.append(sim.ff_state_packed())
            vector = self.schedule[cycle]
            for path in self.loopbacks:
                taps = history[id(path)]
                for i, dst in enumerate(path.targets):
                    bit = taps[i][cycle % path.delay]
                    idx = self._in_index[dst]
                    vector = (vector & ~(1 << idx)) | (bit << idx)
            for i, row in input_rows:
                values[row] = (vector >> i) & 1  # one lane: the mask is 1
            applied.append(vector)
            sim.eval_comb()
            out_vec = sim.output_vector()
            outputs.append(out_vec)
            for path in self.loopbacks:
                taps = history[id(path)]
                for i, src in enumerate(path.sources):
                    taps[i][cycle % path.delay] = (out_vec >> self._out_index[src]) & 1
            sim.tick()
        ff_state.append(sim.ff_state_packed())
        return GoldenTrace(
            n_cycles=self.n_cycles,
            ff_names=[ff.name for ff in sim.flip_flops],
            input_names=self.input_names,
            output_names=self.output_names,
            ff_state=ff_state,
            outputs=outputs,
            applied_inputs=applied,
        )

    # ------------------------------------------------------------- utilities

    def input_index(self, net: str) -> int:
        return self._in_index[net]
