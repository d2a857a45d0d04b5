"""Seeded random sequential-netlist fuzzer.

Generates *valid* mapped circuits over the entire default cell library —
every combinational archetype the compiled simulator has a template for,
both flip-flop types and the tie cells — parameterized by gate count, logic
depth, flip-flop count and fan-out.  The same seed always produces the same
netlist, the same stimulus and the same testbench, so any divergence found
by the differential harness (:mod:`repro.verify.diff`) is reproducible from
a single integer.

The module also provides a deterministic structural shrinker: given a
failing netlist and a predicate, it greedily drops primary outputs, rewrites
multi-input gates to buffers and sweeps dead logic until no smaller failing
circuit can be found.  Shrinking explores candidates in a fixed order, so a
given (netlist, predicate) pair always shrinks to the same minimal example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist.cells import DEFAULT_LIBRARY, CellKind
from ..netlist.core import Netlist, NetlistError
from ..sim.testbench import LoopbackPath, ScheduleBuilder, Testbench

__all__ = [
    "FuzzSpec",
    "FUZZ_SCALES",
    "generate_netlist",
    "generate_schedule",
    "generate_testbench",
    "shrink_netlist",
    "rebuild_netlist",
]

#: Clock and reset net names used by every fuzzed design.
CLOCK_NET = "clk"
RESET_NET = "rst_n"


@dataclass(frozen=True)
class FuzzSpec:
    """Knobs of one fuzzed circuit instance.

    Every parameter is drawn deterministically from ``seed``; two specs that
    compare equal generate structurally identical netlists.

    Attributes
    ----------
    seed:
        Master seed; drives netlist topology, stimulus and loopback layout.
    n_gates:
        Number of combinational gate instances.
    n_ffs:
        Number of flip-flops (``>= 1`` so the clock is always recoverable
        from the Verilog round trip).
    n_inputs:
        Number of data primary inputs (clock and reset are extra).
    n_outputs:
        Primary outputs, sampled from gate and flip-flop output nets.
    max_depth:
        Cap on combinational logic depth (gate inputs are only drawn from
        nets shallower than this).
    max_fanout:
        Soft cap on net fan-out; once a net has this many sinks it stops
        being offered as a gate input (hard circuits can still exceed it
        when every candidate is saturated).
    n_ties:
        Number of TIE0/TIE1 constant generators to sprinkle in.
    p_dffr:
        Probability that a flip-flop is a resettable ``DFFR`` (the rest are
        plain ``DFF`` and power up unknown under the event-driven engine).
    p_loopback:
        Probability that the generated testbench closes an output→input
        loopback pipeline (exercises the injector's reactive replay).
    n_cycles:
        Stimulus length for the generated schedule.
    cell_types:
        Optional restriction of the combinational cell mix (library names);
        ``None`` means the entire combinational library.
    """

    seed: int
    n_gates: int = 40
    n_ffs: int = 8
    n_inputs: int = 6
    n_outputs: int = 6
    max_depth: int = 8
    max_fanout: int = 6
    n_ties: int = 2
    p_dffr: float = 0.75
    p_loopback: float = 0.5
    n_cycles: int = 32
    cell_types: Optional[Tuple[str, ...]] = None

    def with_seed(self, seed: int) -> "FuzzSpec":
        return replace(self, seed=seed)


#: Scale presets mirroring the dataset presets of :mod:`repro.data`.
FUZZ_SCALES: Dict[str, FuzzSpec] = {
    "tiny": FuzzSpec(seed=0, n_gates=18, n_ffs=4, n_inputs=4, n_outputs=4,
                     max_depth=5, n_ties=1, n_cycles=20),
    "mini": FuzzSpec(seed=0),
    "full": FuzzSpec(seed=0, n_gates=120, n_ffs=24, n_inputs=10, n_outputs=12,
                     max_depth=12, max_fanout=8, n_ties=3, n_cycles=48),
}


# --------------------------------------------------------------- generation


def _comb_type_names(spec: FuzzSpec) -> List[str]:
    if spec.cell_types is not None:
        names = list(spec.cell_types)
        for name in names:
            ctype = DEFAULT_LIBRARY.get(name)
            if ctype is None or ctype.kind != CellKind.COMBINATIONAL:
                raise ValueError(f"{name!r} is not a combinational library cell")
        return names
    return [ct.name for ct in DEFAULT_LIBRARY.combinational_types()]


def generate_netlist(spec: FuzzSpec) -> Netlist:
    """Generate a valid, validated netlist from *spec* (deterministic)."""
    rng = random.Random(f"netlist:{spec.seed}")
    netlist = Netlist(f"fuzz_{spec.seed}")
    netlist.add_input(CLOCK_NET, is_clock=True)
    netlist.add_input(RESET_NET)

    # Source pool: every net a gate input may legally read, with its depth
    # and current sink count (for the fan-out cap).
    pool: List[str] = []
    depth: Dict[str, int] = {}
    fanout: Dict[str, int] = {}

    def offer(net: str, d: int) -> None:
        pool.append(net)
        depth[net] = d
        fanout[net] = 0

    for i in range(spec.n_inputs):
        name = f"in{i}"
        netlist.add_input(name)
        offer(name, 0)
    # Reset doubles as an ordinary logic input so RN cones get exercised.
    offer(RESET_NET, 0)

    ff_q_nets = [f"q{i}" for i in range(max(1, spec.n_ffs))]
    for q in ff_q_nets:
        offer(q, 0)

    for i in range(spec.n_ties):
        ctype = rng.choice(["TIE0", "TIE1"])
        out = f"t{i}"
        netlist.add_cell(f"tie{i}", ctype, {"Z": out}, drive=1)
        # Netlist.logic_depth() counts a tie as one gate level.
        offer(out, 1)

    def pick_input(limit_depth: int) -> str:
        candidates = [
            n for n in pool
            if depth[n] < limit_depth and fanout[n] < spec.max_fanout
        ]
        if not candidates:
            candidates = [n for n in pool if depth[n] < limit_depth]
        name = rng.choice(candidates)
        fanout[name] += 1
        return name

    comb_names = _comb_type_names(spec)
    for g in range(spec.n_gates):
        ctype = DEFAULT_LIBRARY[rng.choice(comb_names)]
        out = f"g{g}"
        connections = {ctype.output: out}
        in_depth = 0
        for pin in ctype.inputs:
            net = pick_input(spec.max_depth)
            connections[pin] = net
            in_depth = max(in_depth, depth[net])
        drive = rng.choice(DEFAULT_LIBRARY.drive_strengths)
        netlist.add_cell(f"u{g}", ctype.name, connections, drive=drive)
        offer(out, in_depth + 1)

    for i, q in enumerate(ff_q_nets):
        use_reset = rng.random() < spec.p_dffr
        d_net = rng.choice(pool)
        connections = {"D": d_net, "CK": CLOCK_NET, "Q": q}
        if use_reset:
            connections["RN"] = RESET_NET
        netlist.add_cell(f"ff{i}", "DFFR" if use_reset else "DFF", connections)

    # Primary outputs: sample from driven non-input nets (gate + FF outputs).
    candidates = [n for n in pool if not netlist.nets[n].is_input]
    rng.shuffle(candidates)
    n_outputs = max(1, min(spec.n_outputs, len(candidates)))
    for name in sorted(candidates[:n_outputs]):
        netlist.add_output(name)

    netlist.validate()
    return netlist


def generate_schedule(
    netlist: Netlist, spec: FuzzSpec, lane: int = 0
) -> List[int]:
    """Packed per-cycle input vectors: reset phase, then random stimulus.

    ``lane`` decorrelates the streams used for the multi-lane differential
    check while staying a pure function of the spec seed.
    """
    rng = random.Random(f"schedule:{spec.seed}:{lane}")
    builder = ScheduleBuilder(netlist.inputs)
    reset_len = rng.randint(2, 4)
    builder.drive(0, RESET_NET, 0)
    builder.drive(reset_len, RESET_NET, 1)
    data_inputs = [n for n in netlist.inputs if n not in (CLOCK_NET, RESET_NET)]
    for cycle in range(spec.n_cycles):
        for name in data_inputs:
            builder.drive(cycle, name, rng.getrandbits(1))
    return builder.compile(spec.n_cycles)


def generate_testbench(netlist: Netlist, spec: FuzzSpec) -> Testbench:
    """Wrap the fuzzed netlist in a testbench, optionally with loopback."""
    rng = random.Random(f"loopback:{spec.seed}")
    schedule = generate_schedule(netlist, spec)
    loopbacks: List[LoopbackPath] = []
    free_inputs = [n for n in netlist.inputs if n not in (CLOCK_NET, RESET_NET)]
    if netlist.outputs and free_inputs and rng.random() < spec.p_loopback:
        n_bits = rng.randint(1, min(len(netlist.outputs), len(free_inputs), 3))
        sources = tuple(rng.sample(netlist.outputs, n_bits))
        targets = tuple(rng.sample(free_inputs, n_bits))
        loopbacks.append(
            LoopbackPath(sources=sources, targets=targets, delay=rng.randint(1, 3))
        )
    return Testbench(netlist, schedule, loopbacks, name=f"tb_{spec.seed}")


# ---------------------------------------------------------------- shrinking


def rebuild_netlist(
    netlist: Netlist,
    outputs: Optional[Sequence[str]] = None,
    replace_cells: Optional[Dict[str, Tuple[str, Dict[str, str], int]]] = None,
) -> Netlist:
    """Reconstruct *netlist*, keeping only logic reachable from *outputs*.

    ``replace_cells`` maps an instance name to its replacement
    ``(type_name, connections, drive)``.  Dead cells (no path to any kept
    primary output) are swept; unused primary inputs are kept so the port
    interface stays stable.
    """
    outputs = list(netlist.outputs if outputs is None else outputs)
    replace_cells = replace_cells or {}

    cell_shape: Dict[str, Tuple[str, Dict[str, str], int]] = {}
    for cell in netlist.iter_cells():
        if cell.name in replace_cells:
            cell_shape[cell.name] = replace_cells[cell.name]
        else:
            cell_shape[cell.name] = (
                cell.ctype.name, dict(cell.connections), cell.drive
            )

    # Which cell drives each net, under the replacement map.
    driver_of: Dict[str, str] = {}
    for name, (type_name, connections, _drive) in cell_shape.items():
        ctype = netlist.library[type_name]
        driver_of[connections[ctype.output]] = name

    live: set = set()
    stack = [driver_of[o] for o in outputs if o in driver_of]
    while stack:
        cell_name = stack.pop()
        if cell_name in live:
            continue
        live.add(cell_name)
        type_name, connections, _drive = cell_shape[cell_name]
        ctype = netlist.library[type_name]
        for pin in ctype.inputs:
            net = connections.get(pin)
            if net in driver_of:
                stack.append(driver_of[net])

    rebuilt = Netlist(netlist.name, library=netlist.library)
    for name in netlist.inputs:
        rebuilt.add_input(name, is_clock=name in netlist.clocks)
    for name in netlist.cells:  # insertion order keeps determinism
        if name not in live:
            continue
        type_name, connections, drive = cell_shape[name]
        rebuilt.add_cell(name, type_name, connections, drive=drive)
    for name in outputs:
        rebuilt.add_output(name)
    rebuilt.validate()
    return rebuilt


#: The most candidate netlists one :func:`shrink_netlist` call tries.
SHRINK_MAX_STEPS = 200


def shrink_netlist(netlist: Netlist, predicate: Callable[[Netlist], bool]) -> Netlist:
    """Greedy deterministic shrink: smallest netlist still failing *predicate*.

    *predicate* returns ``True`` while the interesting behaviour (usually "the
    differential harness reports a divergence") persists.  Two reduction
    moves are tried in a fixed order until neither helps:

    1. drop one primary output (and the logic cone now dead);
    2. rewrite one multi-input combinational gate to ``BUF`` of its first
       input (its cone often dies with it).

    Candidates are explored in netlist insertion order, so shrinking is
    fully deterministic for a given input.  At most
    :data:`SHRINK_MAX_STEPS` candidates are tried.
    """
    current = rebuild_netlist(netlist)
    if not predicate(current):
        raise ValueError("predicate does not hold on the unshrunk netlist")

    steps = 0
    improved = True
    while improved and steps < SHRINK_MAX_STEPS:
        improved = False
        for out in list(current.outputs):
            if len(current.outputs) <= 1:
                break
            try:
                candidate = rebuild_netlist(
                    current, outputs=[o for o in current.outputs if o != out]
                )
            except NetlistError:
                continue
            steps += 1
            if predicate(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        for cell in current.combinational_cells():
            if cell.is_tie or len(cell.ctype.inputs) < 2:
                continue
            buf_conns = {
                "A": cell.connections[cell.ctype.inputs[0]],
                "Z": cell.output_net(),
            }
            try:
                candidate = rebuild_netlist(
                    current, replace_cells={cell.name: ("BUF", buf_conns, 1)}
                )
            except NetlistError:
                continue
            steps += 1
            if len(candidate) < len(current) and predicate(candidate):
                current = candidate
                improved = True
                break
    return current
