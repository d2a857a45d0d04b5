"""Parameterized large-circuit generator: 2k–100k flip-flop composites.

The paper's pitch is that statistical fault injection stays affordable at
*design* scale, but the handwritten library tops out at the ~1k-FF MAC —
every scaling claim past that was extrapolation.  This module generates
synthesizable composites whose flip-flop count is a free parameter, so the
campaign substrate (the compiled simulator, the adaptive scheduler, the
warm-start cache) is exercised two orders of magnitude past the MAC with
*measured* numbers (the ``mesh_10k`` workload of ``e2ebench/run.py``).

Two families are provided:

``make_mesh_mac(rows, cols, width)``
    A systolic mesh of multiply-accumulate-like cells: each cell holds a
    *width*-bit operand register (shifted west→east along its row) and a
    *width*-bit accumulator (combining the operand with the accumulator of
    the cell to the north).  Column parities are the primary outputs.  The
    mesh has short local cones (adder + mux per cell), which keeps synthesis
    and levelization shallow while the flip-flop count scales as
    ``2 × rows × cols × width``.

``make_pipeline(stages, width)``
    A deep pipelined datapath: one *width*-bit register per stage, each
    stage applying an alternating mix step (ripple-carry add of a per-stage
    round constant, or a nonlinear chi-style substitution) to the previous
    stage.  Flip-flop count is ``stages × width`` and the state-propagation
    depth equals the stage count, the opposite corner of the design space
    from the wide, shallow mesh.

Both families take an ``en`` advance input, are fully deterministic (no RNG
— round constants are derived from the stage index), and register generic
burst workloads, so any preset drops into datasets, campaigns, the verify
oracle and the benchmark exactly like a handwritten circuit.  The presets
in :data:`GENERATED_PRESETS` are registered in the circuit library but are
deliberately *excluded* from ``LIBRARY_CIRCUITS`` — the transfer experiments
sweep that list, and a 100k-FF mesh does not belong in a tiny-preset sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..netlist.core import Netlist
from ..synth.module import Module
from ..synth.synthesis import synthesize
from ..synth.wordlib import add, const_word, mux_word

__all__ = [
    "GENERATED_FF_COUNTS",
    "GENERATED_NETLIST_NAMES",
    "GENERATED_PRESETS",
    "make_mesh_mac",
    "make_pipeline",
    "mesh_ff_count",
    "pipeline_ff_count",
]


def mesh_ff_count(rows: int, cols: int, width: int) -> int:
    """Flip-flops in ``make_mesh_mac(rows, cols, width)`` (operand + accumulator)."""
    return 2 * rows * cols * width


def pipeline_ff_count(stages: int, width: int) -> int:
    """Flip-flops in ``make_pipeline(stages, width)`` (one register per stage)."""
    return stages * width


def make_mesh_mac(rows: int, cols: int, width: int = 8) -> Netlist:
    """Systolic mesh of MAC-like cells with ``2*rows*cols*width`` flip-flops.

    Cell ``(r, c)`` holds an operand register ``h`` fed from its western
    neighbour (row input for column 0) and an accumulator ``a`` updated as
    ``a + (h & a_north)`` while ``en`` is high; ``clear`` zeroes the
    accumulators synchronously.  Each column's bottom accumulator is
    XOR-reduced to one primary output, so a corrupted accumulator bit stays
    observable without widening the interface by ``cols × width`` nets.
    """
    if rows < 1 or cols < 1 or width < 1:
        raise ValueError("mesh dimensions must be positive")
    m = Module(f"mesh{rows}x{cols}x{width}")
    en = m.input("en")
    clear = m.input("clear")
    row_in = [m.input_bus(f"row_in{r}", width) for r in range(rows)]
    h = [[m.reg_bus(f"h_{r}_{c}", width) for c in range(cols)] for r in range(rows)]
    acc = [[m.reg_bus(f"a_{r}_{c}", width) for c in range(cols)] for r in range(rows)]
    zero = const_word(0, width)
    for r in range(rows):
        for c in range(cols):
            west = row_in[r] if c == 0 else h[r][c - 1]
            m.next_en(h[r][c], en, west)
            north = acc[r - 1][c] if r > 0 else h[r][c]
            term = [hb & nb for hb, nb in zip(h[r][c], north)]
            total, _carry = add(acc[r][c], term)
            m.next(acc[r][c], mux_word(clear, zero, mux_word(en, total, acc[r][c])))
    for c in range(cols):
        bits = acc[rows - 1][c]
        parity = bits[0]
        for bit in bits[1:]:
            parity = parity ^ bit
        m.output(f"col_parity[{c}]", parity)
    return synthesize(m)


def _round_constant(stage: int, width: int) -> int:
    """Deterministic per-stage constant (Weyl sequence on the golden ratio)."""
    return (0x9E3779B1 * (stage + 1)) & ((1 << width) - 1)


def make_pipeline(stages: int, width: int = 16) -> Netlist:
    """Deep pipelined datapath with ``stages*width`` flip-flops.

    Stage 0 captures ``din``; stage ``i+1`` applies, alternately, a
    ripple-carry addition of a per-stage round constant or a chi-style
    nonlinear substitution (``b[j] ^= ~b[j+1] & b[j+2]``, indices mod
    *width*) to stage ``i`` — a long, narrow dependence chain whose
    levelized depth grows with the stage count.  Outputs are the last
    stage's bits plus a whole-pipe parity tap.
    """
    if stages < 1 or width < 3:
        raise ValueError("need at least 1 stage and width >= 3 (chi step)")
    m = Module(f"pipe{stages}x{width}")
    en = m.input("en")
    din = m.input_bus("din", width)
    regs = [m.reg_bus(f"s{i}", width) for i in range(stages)]
    m.next_en(regs[0], en, din)
    for i in range(1, stages):
        prev = regs[i - 1]
        if i % 2 == 0:
            mixed, _carry = add(prev, const_word(_round_constant(i, width), width))
        else:
            mixed = [
                prev[j] ^ (~prev[(j + 1) % width] & prev[(j + 2) % width])
                for j in range(width)
            ]
        m.next_en(regs[i], en, mixed)
    last = regs[-1]
    for j in range(width):
        m.output(f"dout[{j}]", last[j])
    parity = regs[0][0]
    for reg in regs:
        parity = parity ^ reg[width - 1]
    m.output("pipe_parity", parity)
    return synthesize(m)


def _mesh_preset(rows: int, cols: int, width: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        return make_mesh_mac(rows, cols, width)

    return build


def _pipe_preset(stages: int, width: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        return make_pipeline(stages, width)

    return build


#: Shapes of the named generated circuits, spanning ~128 to 100k flip-flops.
#: The suffix is the flip-flop count; ``mesh_tiny`` exists for tests and the
#: verify oracle (small enough to brute-force), the 2k presets are the CI
#: scale-smoke budget, and the 10k/100k presets are the headline scaling
#: measurements.
_MESH_SHAPES: Dict[str, Tuple[int, int, int]] = {
    "mesh_tiny": (2, 4, 8),  # 128 FFs
    "mesh_2k": (8, 16, 8),  # 2,048 FFs
    "mesh_10k": (16, 40, 8),  # 10,240 FFs
    "mesh_100k": (50, 125, 8),  # 100,000 FFs
}
_PIPE_SHAPES: Dict[str, Tuple[int, int]] = {
    "pipe_2k": (128, 16),  # 2,048 FFs
    "pipe_10k": (320, 32),  # 10,240 FFs
}

GENERATED_PRESETS: Dict[str, Callable[[], Netlist]] = {
    **{name: _mesh_preset(*shape) for name, shape in _MESH_SHAPES.items()},
    **{name: _pipe_preset(*shape) for name, shape in _PIPE_SHAPES.items()},
}

#: Flip-flop counts per preset, for size-aware consumers (tests, docs)
#: that should not have to synthesize a 100k-FF netlist to learn its size.
GENERATED_FF_COUNTS: Dict[str, int] = {
    **{name: mesh_ff_count(*shape) for name, shape in _MESH_SHAPES.items()},
    **{name: pipeline_ff_count(*shape) for name, shape in _PIPE_SHAPES.items()},
}

#: Name of the netlist each preset builds (the module name encodes the
#: shape, e.g. ``mesh_tiny`` builds ``mesh2x4x8``).
GENERATED_NETLIST_NAMES: Dict[str, str] = {
    **{name: "mesh{}x{}x{}".format(*shape) for name, shape in _MESH_SHAPES.items()},
    **{name: "pipe{}x{}".format(*shape) for name, shape in _PIPE_SHAPES.items()},
}

#: Registration order for the library (sorted for a stable registry layout).
GENERATED_CIRCUITS: List[str] = sorted(GENERATED_PRESETS)
