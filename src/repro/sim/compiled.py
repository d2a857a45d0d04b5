"""Compiled, levelized, bit-parallel cycle simulator.

This is the simulation substrate every fault-injection engine runs on.  The
netlist's combinational logic is levelized (topologically ordered) once and
translated into generated Python code — one statement per gate, compiled
in bounded chunks (:data:`CHUNK_STATEMENTS`), operating on Python integers
whose bit lanes are independent simulation runs.  A clock ``tick`` latches
every flip-flop simultaneously (every next state is read before any Q it
depends on is updated).

With *n* lanes, one pass of the generated code simulates *n* circuit
instances at once.  Because every gate evaluation is a CPython big-int
operation, cost grows with the integer width; the adaptive injection
scheduler (:mod:`repro.faultinjection.scheduler`) keeps wide passes full by
refilling retired lanes, which is what makes the paper's full flat campaign
(≈1054 flip-flops × 170 injections) feasible in pure Python.

Clock handling is cycle-based: clock nets are forced to 0 and every call to
:meth:`CompiledSimulator.tick` represents one rising edge.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import reduce
from itertools import compress, count, repeat
from operator import and_, itemgetter, or_, rshift, xor
from types import CodeType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..netlist.core import Cell, Netlist
from ..obs import get_telemetry
from .logic import broadcast, lane_mask

__all__ = [
    "CHUNK_STATEMENTS",
    "CompiledSimulator",
    "ConePlan",
    "bind_chunks",
    "build_eval_statements",
    "cached_codegen",
    "compile_chunked",
]

#: ``bytes.translate`` table that swaps 0 and 1: the golden-zero selector of
#: a golden-bits row (:meth:`CompiledSimulator.diverging_rows`).
_INVERT_BITS = bytes([1, 0]) + bytes(254)

# Expression templates per library cell type; {o} output index, {i0}.. inputs.
#
# Every value row holds a lane vector in ``[0, m]`` (see "Lane-width
# invariant" on :class:`CompiledSimulator`), so inversion is ``x ^ m``:
# ``~x & m`` builds a negative big int and masks it back, which costs three
# to five times as much per gate at 4096 lanes.  Each form below is exact as
# long as its inputs lie in ``[0, m]``, and keeps its output there.
_TEMPLATES: Dict[str, str] = {
    "INV": "v[{o}] = v[{i0}] ^ m",
    "BUF": "v[{o}] = v[{i0}]",
    "AND2": "v[{o}] = v[{i0}] & v[{i1}]",
    "AND3": "v[{o}] = v[{i0}] & v[{i1}] & v[{i2}]",
    "AND4": "v[{o}] = v[{i0}] & v[{i1}] & v[{i2}] & v[{i3}]",
    "NAND2": "v[{o}] = (v[{i0}] & v[{i1}]) ^ m",
    "NAND3": "v[{o}] = (v[{i0}] & v[{i1}] & v[{i2}]) ^ m",
    "NAND4": "v[{o}] = (v[{i0}] & v[{i1}] & v[{i2}] & v[{i3}]) ^ m",
    "OR2": "v[{o}] = v[{i0}] | v[{i1}]",
    "OR3": "v[{o}] = v[{i0}] | v[{i1}] | v[{i2}]",
    "OR4": "v[{o}] = v[{i0}] | v[{i1}] | v[{i2}] | v[{i3}]",
    "NOR2": "v[{o}] = (v[{i0}] | v[{i1}]) ^ m",
    "NOR3": "v[{o}] = (v[{i0}] | v[{i1}] | v[{i2}]) ^ m",
    "NOR4": "v[{o}] = (v[{i0}] | v[{i1}] | v[{i2}] | v[{i3}]) ^ m",
    "XOR2": "v[{o}] = v[{i0}] ^ v[{i1}]",
    "XNOR2": "v[{o}] = v[{i0}] ^ v[{i1}] ^ m",
    "MUX2": "v[{o}] = v[{i0}] ^ ((v[{i0}] ^ v[{i1}]) & v[{i2}])",
    "AOI21": "v[{o}] = ((v[{i0}] & v[{i1}]) | v[{i2}]) ^ m",
    "AOI22": "v[{o}] = ((v[{i0}] & v[{i1}]) | (v[{i2}] & v[{i3}])) ^ m",
    "OAI21": "v[{o}] = ((v[{i0}] | v[{i1}]) & v[{i2}]) ^ m",
    "OAI22": "v[{o}] = ((v[{i0}] | v[{i1}]) & (v[{i2}] | v[{i3}])) ^ m",
    "TIE0": "v[{o}] = 0",
    "TIE1": "v[{o}] = m",
}


# Generated functions are compiled as chains of chunks of at most this many
# lines, each its own ``compile()`` call, run in order by a small generated
# driver.  One multi-thousand-statement function leaves the compiler's
# arenas behind (about 22 MB for xgmac's settle, about 200 MB at 10k
# flip-flops); bounded chunks keep that to a few MB, and a call per chunk
# costs nothing next to the big-int gate work inside it.
CHUNK_STATEMENTS = 256


def compile_chunked(
    fn_name: str, params: str, body: Sequence[str], filename: str
) -> Tuple[CodeType, ...]:
    """Compile ``def fn_name(params)`` over the statements *body*, in chunks.

    A statement may be a block of several lines (an ``if`` and its
    indented body); blocks are never cut.  Chunk *k* is
    ``{fn_name}_{k}(params)`` over consecutive statements of at most
    :data:`CHUNK_STATEMENTS` lines in all (or one longer block), each its
    own ``compile()``; the last code object defines the driver
    ``fn_name(params)``, which calls the chunks in order.  Statements
    therefore run in *body* order, but no local survives a chunk boundary.
    """
    size = CHUNK_STATEMENTS
    parts: List[List[str]] = []
    room = 0
    for statement in body:
        lines = statement.split("\n")
        if len(lines) > room:
            parts.append([])
            room = size
        parts[-1] += lines
        room -= len(lines)
    sources = []
    calls = []
    for k, part in enumerate(parts):
        sources.append(
            f"def {fn_name}_{k}({params}):\n" + "\n".join("    " + s for s in part)
        )
        calls.append(f"    {fn_name}_{k}({params})")
    sources.append(f"def {fn_name}({params}):\n" + "\n".join(calls or ["    pass"]))
    return tuple(compile(source, filename, "exec") for source in sources)


def bind_chunks(codes: Sequence[CodeType], fn_name: str) -> Callable:
    """Exec *codes* into one fresh namespace and return its *fn_name*."""
    namespace: Dict[str, object] = {}
    for code in codes:
        exec(code, namespace)  # noqa: S102 - generated from our own netlist
    return namespace[fn_name]  # type: ignore[return-value]


def build_eval_statements(
    netlist: Netlist,
    net_index: Mapping[str, int],
    cells: Optional[Sequence[str]] = None,
) -> List[str]:
    """Generate the statements of the combinational settle of *netlist*.

    The body of ``_eval(v, m)``: one statement per gate in levelized
    order, reading and writing ``v[i]`` lane vectors under the all-ones
    mask ``m``.  Every combinational cell type needs a template; a cell
    without one raises :class:`ValueError`.

    *cells* restricts generation to a subset of combinational cells (must
    already be in a valid evaluation order) — this is how the scheduler's
    observed-cone settle is built (:meth:`CompiledSimulator.compile_cone_eval`).
    """
    lines = []
    order = netlist.topological_comb_order() if cells is None else list(cells)
    for cell_name in order:
        cell = netlist.cells[cell_name]
        out = net_index[cell.output_net()]
        ins = [net_index[n] for n in cell.input_nets()]
        template = _TEMPLATES.get(cell.ctype.name)
        if template is None:
            raise ValueError(
                f"cell {cell_name!r}: no settle template for cell type {cell.ctype.name!r}"
            )
        fields = {"o": out}
        for pos, in_idx in enumerate(ins):
            fields[f"i{pos}"] = in_idx
        lines.append(template.format(**fields))
    return lines


# ------------------------------------------------------------ codegen cache
#
# Source generation and ``compile()`` are O(cells) and dominate simulator
# construction on large netlists (at the 10k-FF generated composites they
# cost seconds).  Every simulator built for the same netlist generates the
# *same* source — the net index is the netlist's own deterministic
# enumeration — so the compiled code objects are cached per netlist and
# per generated function (eval, tick).  Keyed weakly: dropping the last
# netlist reference drops its code objects.
# ``exec`` of cached code objects only materializes function objects,
# which is orders of magnitude cheaper than parsing the source again.

_CODEGEN_CACHE: "weakref.WeakKeyDictionary[Netlist, Dict[tuple, object]]" = (
    weakref.WeakKeyDictionary()
)


def _cache_for(netlist: Netlist) -> Dict[tuple, object]:
    cache = _CODEGEN_CACHE.get(netlist)
    if cache is None:
        cache = {}
        _CODEGEN_CACHE[netlist] = cache
    return cache


def cached_codegen(
    netlist: Netlist,
    key: tuple,
    fn_name: str,
    build_codes: Callable[[], Tuple[CodeType, ...]],
) -> Callable:
    """Per-netlist cached compile of a generated function (the settle, the tick).

    *build_codes* is only invoked on a cache miss and returns the code
    objects that together define *fn_name*; the returned function is a
    fresh object bound to a fresh namespace, so instances never share state
    through it.
    """
    cache = _cache_for(netlist)
    key = key + (CHUNK_STATEMENTS,)
    codes = cache.get(key)
    if codes is None:
        codes = build_codes()
        cache[key] = codes
    return bind_chunks(codes, fn_name)


class ConePlan(NamedTuple):
    """The cells of an observed-cone settle (:meth:`CompiledSimulator.cone_plan`)."""

    #: Every cone cell, in topological order.
    cells: List[str]
    #: The cone covers every combinational cell; it is then not gated.
    full: bool
    #: Hold mux cell name -> the Q row of the flip-flop it holds.
    holds: Dict[str, int]
    #: Gated cell name (hold muxes included) -> the enable row gating it.
    gate: Dict[str, int]


class CompiledSimulator:
    """Cycle-based bit-parallel simulator for a mapped :class:`Netlist`.

    Parameters
    ----------
    netlist:
        The design to simulate.  Must validate (no combinational cycles).
    n_lanes:
        Number of parallel simulation lanes (bits per net value).

    Notes
    -----
    The evaluation/tick order expected by callers is::

        sim.reset()
        for cycle in range(n):
            sim.set_input(...)        # drive primary inputs
            sim.eval_comb()           # settle combinational logic
            ... observe outputs ...
            sim.tick()                # rising clock edge

    After mutating flip-flop state directly (:meth:`flip_ff`,
    :meth:`load_ff_state_packed`), call :meth:`eval_comb` before observing
    nets.

    Lane-width invariant: every value row is a lane vector in
    ``[0, mask]``.  Every writer keeps it — inputs and flip-flop loads are
    masked or broadcast, the gate templates map in-range inputs to in-range
    outputs, and :meth:`resize_lanes` masks the rows when the width shrinks
    — so the generated code inverts with ``x ^ m`` instead of ``~x & m``.
    Callers writing ``values`` directly must stay within the mask too.
    """

    def __init__(self, netlist: Netlist, n_lanes: int = 1) -> None:
        netlist.validate()
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.mask = lane_mask(n_lanes)

        self.net_index: Dict[str, int] = {}
        for i, name in enumerate(netlist.nets):
            self.net_index[name] = i
        self.values: List[int] = [0] * len(self.net_index)

        self.flip_flops: List[Cell] = netlist.flip_flops()
        self.ff_index: Dict[str, int] = {ff.name: i for i, ff in enumerate(self.flip_flops)}
        self._ff_q: List[int] = [self.net_index[ff.output_net()] for ff in self.flip_flops]
        self._ff_d: List[int] = [
            self.net_index[ff.connections["D"]] for ff in self.flip_flops
        ]
        self._ff_rn: List[Optional[int]] = [
            self.net_index[ff.connections["RN"]] if "RN" in ff.connections else None
            for ff in self.flip_flops
        ]
        self._clock_nets = [self.net_index[c] for c in netlist.clocks if c in self.net_index]
        self._out_rows: List[int] = [self.net_index[name] for name in netlist.outputs]

        self._eval_fn = self._compile_eval()
        self._tick_fn = self._compile_tick()

    # ------------------------------------------------------------ compiling

    def _compile_eval(self) -> Callable[[List[int], int], None]:
        """The full settle, :func:`build_eval_statements` chunked.  The
        cell/net counts in the key guard against a netlist mutated after
        its code was cached."""
        netlist = self.netlist
        key = ("eval", len(netlist.cells), len(netlist.nets))
        return cached_codegen(
            netlist,
            key,
            "_eval",
            lambda: compile_chunked(
                "_eval",
                "v, m",
                build_eval_statements(netlist, self.net_index),
                f"<repro-eval:{netlist.name}>",
            ),
        )

    def _build_tick(self, ffs: Optional[Sequence[int]] = None) -> Tuple[CodeType, ...]:
        """The tick: latch the D (gated by sync RN) of every flip-flop in
        *ffs* (flip-flop indices; default all) into its Q.

        Every D/RN pin must be read before any Q it names is written.  A
        flip-flop whose Q no latched D/RN pin reads is latched in place; the
        others' next states are staged in the namespace list ``_t`` and
        written after the last read, so the order holds across chunk
        boundaries.
        """
        filename = f"<repro-{'tick' if ffs is None else 'partial-tick'}:{self.netlist.name}>"
        if ffs is None:
            ffs = range(len(self._ff_q))
        read_nets = {self._ff_d[i] for i in ffs}
        read_nets |= {self._ff_rn[i] for i in ffs if self._ff_rn[i] is not None}
        staged: List[str] = []
        direct: List[str] = []
        commits: List[str] = []
        for i in ffs:
            q, d, rn = self._ff_q[i], self._ff_d[i], self._ff_rn[i]
            next_state = f"v[{d}]" if rn is None else f"v[{d}] & v[{rn}]"
            if q in read_nets:
                commits.append(f"v[{q}] = _t[{len(staged)}]")
                staged.append(f"_t[{len(staged)}] = {next_state}")
            else:
                direct.append(f"v[{q}] = {next_state}")
        scratch = compile(f"_t = [0] * {len(staged)}", filename, "exec")
        return (scratch,) + compile_chunked(
            "_tick", "v, m", staged + direct + commits, filename
        )

    def _compile_tick(self) -> Callable[[List[int], int], None]:
        key = ("tick", len(self.netlist.cells))
        return cached_codegen(self.netlist, key, "_tick", self._build_tick)

    def compile_partial_tick(self, ffs: Sequence[int]) -> Callable[[List[int], int], None]:
        """Compile a tick that latches only the flip-flops *ffs* (indices).

        Every other Q row keeps its value.  When *ffs* names every
        flip-flop this returns the simulator's own tick rather than
        compiling a copy.
        """
        if len(set(ffs)) == len(self._ff_q):
            return self._tick_fn
        return bind_chunks(self._build_tick(ffs), "_tick")

    # ------------------------------------------------------ cone evaluation

    def cone_plan(self, roots: Sequence[int], latched: Sequence[int] = ()) -> ConePlan:
        """The cells that settle *roots* and the D/RN pins of the *latched*
        flip-flops (indices), and which of them an enable can gate.

        The cone is the backward closure of those rows, stopping at
        flip-flop outputs and primary inputs.  A *hold mux* is a ``MUX2``
        driving the D pin of exactly one latched flip-flop from that
        flip-flop's own Q (its ``A`` input), whose output no cone cell, root
        or other pin reads: while its select (the *enable*) is 0 on every
        lane it computes ``D = Q``.  A cell that is no root joins enable
        *e*'s group when each cone cell reading it is in that group, or is
        one of *e*'s hold muxes reading it on its data input ``B``; hold
        muxes join their own enable's group.  No group cell feeds an
        enable, so the enables settle with the ungated cells.  A cone that
        covers every combinational cell is not gated (``full``).
        """
        netlist = self.netlist
        cells = netlist.cells
        index = self.net_index
        net_names = list(netlist.nets)
        pins = set(roots)
        for i in latched:
            pins.add(self._ff_d[i])
            if self._ff_rn[i] is not None:
                pins.add(self._ff_rn[i])
        in_cone = set()
        stack = [net_names[idx] for idx in pins]
        seen = set(stack)
        while stack:
            driver = netlist.nets[stack.pop()].driver
            if driver is None:
                continue
            cell = cells[driver.cell]
            if cell.is_sequential:
                continue
            in_cone.add(cell.name)
            for net in cell.input_nets():
                if net not in seen:
                    seen.add(net)
                    stack.append(net)
        order = netlist.topological_comb_order()
        if len(in_cone) == len(order):
            return ConePlan(list(order), True, {}, {})
        cone = [name for name in order if name in in_cone]

        out_of = {name: index[cells[name].output_net()] for name in cone}
        driver_of = {out: name for name, out in out_of.items()}
        readers: Dict[int, List[Tuple[str, int]]] = {}
        for name in cone:
            for pos, net in enumerate(cells[name].input_nets()):
                readers.setdefault(index[net], []).append((name, pos))
        d_count = Counter(self._ff_d[i] for i in latched)
        other_pins = set(roots) | {self._ff_rn[i] for i in latched}
        holds: Dict[str, int] = {}
        gate: Dict[str, int] = {}
        for i in latched:
            d, q = self._ff_d[i], self._ff_q[i]
            name = driver_of.get(d)
            if name is None or d_count[d] > 1 or d in other_pins or d in readers:
                continue
            cell = cells[name]
            if cell.ctype.name != "MUX2":
                continue
            a, _b, s = (index[net] for net in cell.input_nets())
            if a == q:
                holds[name] = q
                gate[name] = s

        for name in reversed(cone):
            if name in gate or out_of[name] in pins:
                continue
            enables = {
                (gate[reader] if pos == 1 else None)
                if reader in holds
                else gate.get(reader)
                for reader, pos in readers.get(out_of[name], ())
            }
            if len(enables) == 1 and None not in enables:
                gate[name] = enables.pop()
        return ConePlan(cone, False, holds, gate)

    def compile_cone_eval(self, plan: ConePlan) -> Callable[[List[int], int], None]:
        """Compile an ``_eval`` over the cone of *plan* (a :meth:`cone_plan`),
        enable-gated.

        Calling the result settles every root and the D/RN pins of every
        latched flip-flop of the plan exactly as :meth:`eval_comb` would
        (minus the clock forcing) and leaves nets outside the cone
        untouched.  It runs the ungated cells in topological order, then
        each enable *e*'s group inline as ``if v[e]:`` over the group's
        cells and ``if not v[e]:`` over copies of each hold mux's Q to its
        D — the mux's value while the enable is 0 on every lane — leaving
        the group's other nets stale, which only those muxes' data inputs
        read.  No group cell feeds an enable, so a group longer than a
        chunk is cut into several blocks that each test the enable again.
        When the cone covers every combinational cell this returns the
        cached full ``_eval`` itself rather than compiling a copy.  The
        plan's static shape is recorded as the gauges
        ``sim.compiled.cone_cells``, ``sim.compiled.gated_cells`` and
        ``sim.compiled.enable_groups``.
        """
        groups: Dict[int, List[str]] = {}
        for name in plan.cells:
            if name in plan.gate:
                groups.setdefault(plan.gate[name], []).append(name)
        registry = get_telemetry().registry
        registry.gauge("sim.compiled.cone_cells").set(len(plan.cells))
        registry.gauge("sim.compiled.gated_cells").set(len(plan.gate))
        registry.gauge("sim.compiled.enable_groups").set(len(groups))
        if plan.full:
            return self._eval_fn

        netlist = self.netlist
        index = self.net_index
        body = build_eval_statements(
            netlist, index, [name for name in plan.cells if name not in plan.gate]
        )
        step = max(1, CHUNK_STATEMENTS - 1)  # a block's statements, its test aside
        for enable, members in groups.items():
            copies = [
                f"v[{index[netlist.cells[name].output_net()]}] = v[{plan.holds[name]}]"
                for name in members
                if name in plan.holds
            ]
            for test, block in (
                (f"if v[{enable}]:", build_eval_statements(netlist, index, members)),
                (f"if not v[{enable}]:", copies),
            ):
                for start in range(0, len(block), step):
                    body.append("\n    ".join([test, *block[start:start + step]]))
        filename = f"<repro-cone-eval:{netlist.name}>"
        return bind_chunks(compile_chunked("_eval", "v, m", body, filename), "_eval")

    # -------------------------------------------------------------- control

    def resize_lanes(self, n_lanes: int, keep: bool = False) -> None:
        """Change the number of parallel lanes.

        The generated code is lane-count independent (the mask is threaded
        through), so resizing is O(nets) at most.  By default every value is
        cleared, to avoid stale bits from wider previous runs; reload state
        afterwards.  With *keep*, lanes below both widths keep their values
        and added lanes read 0: growing touches no row (each already lies
        within the narrower mask), shrinking masks every row to the new
        width.
        """
        narrower = n_lanes < self.n_lanes
        self.n_lanes = n_lanes
        self.mask = lane_mask(n_lanes)
        values = self.values
        if not keep:
            values[:] = [0] * len(values)
        elif narrower:
            mask = self.mask
            values[:] = [value & mask for value in values]

    def reset(self, ff_value: int = 0) -> None:
        """Zero all nets and force every flip-flop output to *ff_value*."""
        fill = broadcast(ff_value, self.mask)
        for i in range(len(self.values)):
            self.values[i] = 0
        for q in self._ff_q:
            self.values[q] = fill
        self.eval_comb()

    def set_input(self, name: str, bit: int) -> None:
        """Drive primary input *name* with a scalar 0/1 on every lane."""
        self.values[self.net_index[name]] = broadcast(bit, self.mask)

    def set_input_lanes(self, name: str, value: int) -> None:
        """Drive primary input *name* with a per-lane bit-parallel value."""
        self.values[self.net_index[name]] = value & self.mask

    def eval_comb(self) -> None:
        """Propagate values through the combinational logic (one full pass)."""
        for clk in self._clock_nets:
            self.values[clk] = 0
        self._eval_fn(self.values, self.mask)

    def tick(self) -> None:
        """Rising clock edge: latch D (gated by sync RN) into every Q."""
        self._tick_fn(self.values, self.mask)

    def apply_inputs(self, assignments: Mapping[str, int]) -> None:
        """Drive several inputs with scalar values at once."""
        for name, bit in assignments.items():
            self.set_input(name, bit)

    def step(self, assignments: Mapping[str, int] | None = None) -> None:
        """Convenience: drive inputs, settle logic, clock the registers."""
        if assignments:
            self.apply_inputs(assignments)
        self.eval_comb()
        self.tick()

    def set_word(self, bus: str, width: int, value: int) -> None:
        """Drive input nets ``bus[0..width-1]`` from an integer (broadcast)."""
        for bit in range(width):
            self.set_input(f"{bus}[{bit}]", (value >> bit) & 1)

    # ------------------------------------------------------------ observing

    def get(self, net_name: str) -> int:
        """Bit-parallel value of a net (after :meth:`eval_comb`)."""
        return self.values[self.net_index[net_name]]

    def get_bit(self, net_name: str, lane: int = 0) -> int:
        """Value of a net on one lane."""
        return (self.values[self.net_index[net_name]] >> lane) & 1

    def get_word(self, bus: str, width: int, lane: int = 0) -> int:
        """Read nets ``bus[0] .. bus[width-1]`` of one lane as an integer."""
        word = 0
        for bit in range(width):
            word |= self.get_bit(f"{bus}[{bit}]", lane) << bit
        return word

    def output_vector(self, lane: int = 0) -> int:
        """All primary outputs of one lane, packed in ``netlist.outputs`` order."""
        return self._pack_lane(self._out_rows, lane)

    def _pack_lane(self, rows: Sequence[int], lane: int) -> int:
        """Bit *lane* of every value row in *rows*, packed: bit *j* of the
        result is that bit of ``rows[j]``.  The bits are listed in C and
        packed in one NumPy pass; on one lane every row already is its bit
        (lane-width invariant)."""
        bits = map(self.values.__getitem__, rows)
        if lane or self.n_lanes > 1:
            bits = map(and_, map(rshift, bits, repeat(lane)), repeat(1))
        packed = np.packbits(np.frombuffer(bytes(bits), dtype=np.uint8), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    # ------------------------------------------------------- flip-flop state

    def ff_state_packed(self, lane: int = 0) -> int:
        """State of every flip-flop in one lane, packed one bit per FF.

        Bit *i* of the result is the Q value of ``netlist.flip_flops()[i]``.
        """
        return self._pack_lane(self._ff_q, lane)

    def load_ff_state_packed(self, packed: int) -> None:
        """Broadcast a packed single-lane FF state onto every lane."""
        mask = self.mask
        values = self.values
        for i, q in enumerate(self._ff_q):
            values[q] = mask if (packed >> i) & 1 else 0

    def flip_ff(self, ff: str | int, lanes: int) -> None:
        """XOR the Q output of a flip-flop on the selected *lanes*.

        This is the SEU injection primitive: it emulates the simulator
        command the paper uses to invert the value stored in a flip-flop.
        """
        index = self.ff_index[ff] if isinstance(ff, str) else ff
        self.values[self._ff_q[index]] ^= lanes & self.mask

    def diverging_rows(
        self,
        rows: Sequence[int],
        golden: bytes,
        active: int,
    ) -> int:
        """Active-lane divergence of value rows against broadcast golden bits.

        *rows* are value indices and ``golden[k]`` (0 or 1) is the golden
        value of ``rows[k]`` (a row of
        :attr:`~repro.faultinjection.injector.FaultInjector.relevant_bits`).
        Returns the union of diverging lanes: active lanes where any row
        differs from its golden bit — the probe the scheduler runs at every
        retirement check.  The rows are walked in C: the lanes where a
        golden-zero row is set, OR the lanes where a golden-one row is
        clear.
        """
        get = self.values.__getitem__
        mask = self.mask
        set_low = reduce(or_, map(get, compress(rows, golden.translate(_INVERT_BITS))), 0)
        clear_high = reduce(and_, map(get, compress(rows, golden)), mask) ^ mask
        return (set_low | clear_high) & active

    def diverging_row_planes(
        self,
        rows: Sequence[int],
        golden: bytes,
        active: int,
    ) -> Tuple[int, int, List[int]]:
        """:meth:`diverging_rows` that also locates a lone deviating row.

        Returns ``(diff, multi, planes)`` from one pass over *rows*:
        ``diff`` is :meth:`diverging_rows`' result, ``multi`` the active
        lanes where at least two rows differ, and on every lane of ``diff
        & ~multi`` bit *b* of ``planes[b]`` is bit *b* of the position *k*
        (in *rows*) of the one row that differs.  Each row's deviation is
        computed in C, and only the rows that deviate on some active lane
        reach the Python loop; the scheduler merges lanes that share that
        one row.
        """
        n_planes = max(1, (len(rows) - 1).bit_length())
        planes = [0] * n_planes
        diff = multi = 0
        broadcast_bit = (0, self.mask).__getitem__
        deviations = map(
            and_,
            map(xor, map(self.values.__getitem__, rows), map(broadcast_bit, golden)),
            repeat(active),
        )
        for k, deviating in filter(itemgetter(1), zip(count(), deviations)):
            multi |= diff & deviating
            diff |= deviating
            b = 0
            while k:
                if k & 1:
                    planes[b] |= deviating
                k >>= 1
                b += 1
        return diff, multi, planes

    # ----------------------------------------------------------------- misc

    @property
    def n_flip_flops(self) -> int:
        """Number of flip-flops in the design (lane-state width)."""
        return len(self.flip_flops)
