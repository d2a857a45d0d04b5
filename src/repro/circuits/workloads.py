"""Workload construction: the paper's MAC testbench plus generic testbenches.

The original (and still headline) workload mirrors the testbench the paper
describes for the 10GE MAC: it "writes several packets to the transmit
packet interface", the XGMII TX interface "is looped back to the XGMII RX
interface", the frames are processed by the receive engine, and "the
testbench reads frames from the packet receive interface".  The record of
sent and received packets is the golden reference for the fault-injection
campaign.

Beyond the MAC, every circuit in :mod:`repro.circuits.library` gets a
workload through the **workload registry**: circuit names (exact or prefix)
map to a builder plus a default failure-criterion kind.  Builders share one
signature — ``(netlist, n_frames, min_len, max_len, gap, seed)`` — so a
:class:`repro.data.DatasetSpec` describes any circuit's workload with the
same six knobs; for the generic burst testbench they read as *number of
stimulus bursts*, *burst length range* and *idle gap*.  Register a builder
with :func:`register_workload` to open a new circuit family to the dataset
and experiment layers (see ``docs/experiments.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist.core import Netlist
from ..sim.testbench import GoldenTrace, LoopbackPath, ScheduleBuilder, Testbench

__all__ = [
    "Workload",
    "XgMacWorkload",
    "build_xgmac_workload",
    "build_burst_workload",
    "make_burst_builder",
    "build_workload_for",
    "register_workload",
    "default_criterion",
    "decode_rx_stream",
    "expected_rx_entries",
]

RESET_CYCLES = 4


@dataclass
class Workload:
    """A fully specified injection workload for one circuit.

    Attributes
    ----------
    testbench:
        Compiled stimulus schedule (plus any loopbacks), ready for
        golden/fault runs.
    active_window:
        ``(first, last)`` cycle range during which stimulus is in flight —
        the paper injects faults "during the active phase of the
        simulation, when packets are sent and received".
    valid_nets / data_nets:
        Primary outputs forming a packet-style failure criterion (strobes
        vs. payload).  Circuits without a streaming interface leave these
        empty and rely on the ``any_output`` criterion instead.
    """

    testbench: Testbench
    active_window: Tuple[int, int]
    valid_nets: List[str] = field(default_factory=list)
    data_nets: List[str] = field(default_factory=list)


@dataclass
class XgMacWorkload(Workload):
    """The MAC workload: a :class:`Workload` plus the frame record.

    ``frames`` holds the payloads written to the TX packet interface, in
    order — the golden reference for :func:`expected_rx_entries`.
    """

    frames: List[List[int]] = field(default_factory=list)


def build_xgmac_workload(
    netlist: Netlist,
    n_frames: int = 10,
    min_len: int = 6,
    max_len: int = 16,
    gap: int = 14,
    seed: int = 1,
    drain_cycles: int = 160,
) -> XgMacWorkload:
    """Build the frame-streaming workload for a synthesized MAC netlist.

    Frame payloads and lengths are drawn from a seeded RNG so the workload
    is fully reproducible.  Pacing (one write per cycle, *gap* idle cycles
    between frames) keeps the TX FIFO from overflowing for the default
    presets.
    """
    rng = random.Random(seed)
    frames = [
        [rng.randrange(256) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(n_frames)
    ]

    sb = ScheduleBuilder(netlist.inputs)
    sb.drive(0, "rst_n", 0)
    sb.drive(RESET_CYCLES, "rst_n", 1)
    sb.drive(RESET_CYCLES + 2, "pkt_rx_ren", 1)

    cycle = RESET_CYCLES + 2
    if "cfg_wen" in netlist.nets and netlist.nets["cfg_wen"].is_input:
        for i in range(4):
            sb.drive(cycle, "cfg_wen", 1)
            sb.drive_word(cycle, "cfg_addr", 3, i)
            sb.drive_word(cycle, "cfg_wdata", 8, rng.randrange(256))
            cycle += 1
        sb.drive(cycle, "cfg_wen", 0)
        cycle += 2

    first_active = cycle
    for payload in frames:
        for i, byte in enumerate(payload):
            sb.drive(cycle, "pkt_tx_val", 1)
            sb.drive(cycle, "pkt_tx_sop", 1 if i == 0 else 0)
            sb.drive(cycle, "pkt_tx_eop", 1 if i == len(payload) - 1 else 0)
            sb.drive_word(cycle, "pkt_tx_data", 8, byte)
            cycle += 1
        sb.drive(cycle, "pkt_tx_val", 0)
        sb.drive(cycle, "pkt_tx_eop", 0)
        cycle += gap
    last_activity = cycle + drain_cycles // 2
    total_cycles = cycle + drain_cycles

    loopbacks = [
        LoopbackPath(
            sources=tuple([f"xgmii_txd[{i}]" for i in range(8)] + ["xgmii_txc"]),
            targets=tuple([f"xgmii_rxd[{i}]" for i in range(8)] + ["xgmii_rxc"]),
            delay=1,
        )
    ]
    testbench = Testbench(netlist, sb.compile(total_cycles), loopbacks, name="xgmac_frames")
    data_nets = [f"pkt_rx_data[{i}]" for i in range(8)] + ["pkt_rx_sop", "pkt_rx_eop"]
    return XgMacWorkload(
        testbench=testbench,
        frames=frames,
        active_window=(first_active, last_activity),
        valid_nets=["pkt_rx_val"],
        data_nets=data_nets,
    )


def build_burst_workload(
    netlist: Netlist,
    n_frames: int = 8,
    min_len: int = 4,
    max_len: int = 7,
    gap: int = 14,
    seed: int = 1,
    drain_cycles: int = 24,
    bias: Optional[Dict[str, float]] = None,
) -> Workload:
    """Generic seeded burst testbench for any synthesized circuit.

    Releases reset, then drives *n_frames* bursts of random values on every
    non-clock, non-reset primary input — each burst between *min_len* and
    *max_len* cycles long, separated by *gap* idle cycles (inputs return to
    zero).  This exercises both the active datapath and the quiescent-state
    behaviour that dominates un-reset storage bits, mirroring the traffic /
    idle alternation of the MAC frame workload at library-circuit scale.

    *bias* maps input names to their per-cycle probability of driving 1
    (default 0.5) — the hook circuit registrations use to shape stimulus for
    control inputs (a synchronous clear that fires half the time would wipe
    a counter before any fault can propagate).

    The schedule is fully determined by the knobs and the netlist's port
    list, so workers and cache keys reproduce it exactly.
    """
    rng = random.Random(seed)
    bias = bias or {}
    data_inputs = [
        name
        for name in netlist.inputs
        if name not in netlist.clocks and name != "rst_n"
    ]

    sb = ScheduleBuilder(netlist.inputs)
    has_reset = "rst_n" in netlist.nets and netlist.nets["rst_n"].is_input
    if has_reset:
        sb.drive(0, "rst_n", 0)
        sb.drive(RESET_CYCLES, "rst_n", 1)
    cycle = (RESET_CYCLES if has_reset else 0) + 2

    first_active = cycle
    for _ in range(n_frames):
        burst_len = rng.randint(min_len, max_len)
        for _ in range(burst_len):
            for name in data_inputs:
                bit = 1 if rng.random() < bias.get(name, 0.5) else 0
                sb.drive(cycle, name, bit)
            cycle += 1
        for name in data_inputs:
            sb.drive(cycle, name, 0)
        cycle += gap
    last_activity = cycle + drain_cycles // 2
    total_cycles = cycle + drain_cycles

    testbench = Testbench(netlist, sb.compile(total_cycles), name=f"{netlist.name}_burst")
    return Workload(
        testbench=testbench,
        active_window=(first_active, last_activity),
        valid_nets=[],
        data_nets=list(netlist.outputs),
    )


# --------------------------------------------------------------- registry

WorkloadBuilder = Callable[..., Workload]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload family: builder plus default criterion kind."""

    builder: WorkloadBuilder
    criterion: str


#: Exact-name entries take precedence; prefix entries (``"xgmac"``) cover
#: whole circuit families.  ``criterion`` names one of the kinds resolved by
#: :func:`repro.campaigns.spec.build_context`: ``packet`` (the paper's
#: strobe+payload rules over valid/data nets), ``observed`` (any deviation
#: on the workload's valid/data nets) or ``any_output`` (any deviation on
#: any primary output).
_WORKLOADS_EXACT: Dict[str, WorkloadEntry] = {}
_WORKLOADS_PREFIX: Dict[str, WorkloadEntry] = {}


def register_workload(
    circuit: str,
    builder: WorkloadBuilder,
    criterion: str = "any_output",
    prefix: bool = False,
) -> None:
    """Register *builder* as the workload for *circuit*.

    With ``prefix=True`` the entry covers every circuit whose name starts
    with *circuit* (longest registered prefix wins).  The builder must
    accept ``(netlist, n_frames=..., min_len=..., max_len=..., gap=...,
    seed=...)`` and return a :class:`Workload`.
    """
    if prefix:
        _WORKLOADS_PREFIX[circuit] = WorkloadEntry(builder, criterion)
    else:
        _WORKLOADS_EXACT[circuit] = WorkloadEntry(builder, criterion)


def _lookup(circuit: str) -> WorkloadEntry:
    entry = _WORKLOADS_EXACT.get(circuit)
    if entry is not None:
        return entry
    best: Optional[str] = None
    for prefix in _WORKLOADS_PREFIX:
        if circuit.startswith(prefix) and (best is None or len(prefix) > len(best)):
            best = prefix
    if best is not None:
        return _WORKLOADS_PREFIX[best]
    # Default family: the generic burst testbench with the strict criterion.
    return WorkloadEntry(build_burst_workload, "any_output")


def build_workload_for(
    circuit: str,
    netlist: Netlist,
    n_frames: int = 8,
    min_len: int = 4,
    max_len: int = 7,
    gap: int = 14,
    seed: int = 1,
) -> Workload:
    """Build the registered workload for *circuit* on *netlist*."""
    entry = _lookup(circuit)
    return entry.builder(
        netlist,
        n_frames=n_frames,
        min_len=min_len,
        max_len=max_len,
        gap=gap,
        seed=seed,
    )


def default_criterion(circuit: str) -> str:
    """The registered failure-criterion kind for *circuit*."""
    return _lookup(circuit).criterion


def make_burst_builder(
    observed: Optional[Sequence[str]] = None,
    bias: Optional[Dict[str, float]] = None,
) -> WorkloadBuilder:
    """A burst-workload builder with fixed observation points and stimulus bias.

    Restricting observation to the circuit's functional interface (the
    count MSB of a counter, the serial output of a shift register …) is
    what makes library-circuit FDR non-trivial: a fault is a failure only
    if it *reaches* those nets within the workload, so deep or rarely read
    state earns the same logical derating the paper measures on the MAC.
    *bias* shapes the stimulus (see :func:`build_burst_workload`).
    """

    def build(netlist: Netlist, **kwargs) -> Workload:
        workload = build_burst_workload(netlist, bias=bias, **kwargs)
        if observed is not None:
            missing = [n for n in observed if n not in netlist.outputs]
            if missing:
                raise ValueError(
                    f"observed nets {missing} are not outputs of {netlist.name}"
                )
            workload.data_nets = list(observed)
        return workload

    return build


register_workload("xgmac", build_xgmac_workload, criterion="packet", prefix=True)
# Library circuits: each family watches its functional interface.  Counters
# are judged by their count MSB and terminal count (low-bit flips must carry
# far enough within the workload to matter), shift registers by the serial
# output, LFSRs by the PRBS tap, the Gray counter by its MSB, the FSM by its
# Moore outputs; the FIFO and CRC interfaces are inherently maskable (unread
# entries, not-yet-propagated high CRC bits), so every output counts there.
_COUNTER_BIAS = {"en": 0.8, "clear": 0.04}
register_workload(
    "counter8",
    make_burst_builder(["count[7]", "count[4]", "tc"], bias=_COUNTER_BIAS),
    criterion="observed",
)
register_workload(
    "counter16",
    make_burst_builder(["count[15]", "count[5]", "tc"], bias=_COUNTER_BIAS),
    criterion="observed",
)
register_workload(
    "counter",
    make_burst_builder(["tc"], bias=_COUNTER_BIAS),
    criterion="observed",
    prefix=True,
)
register_workload("shiftreg", make_burst_builder(["dout"]), criterion="observed", prefix=True)
register_workload("lfsr", make_burst_builder(["prbs[0]"]), criterion="observed", prefix=True)
register_workload("gray8", make_burst_builder(["gray[7]"]), criterion="observed")
register_workload("fsm_ctrl", make_burst_builder(["busy", "done"]), criterion="observed")
register_workload("fifo", build_burst_workload, criterion="any_output", prefix=True)
register_workload("crc32", build_burst_workload, criterion="any_output")
# Generated composites (circuits/generator.py): bursts with a mostly-on
# advance enable (stalled pipelines/meshes propagate nothing) and a rare
# synchronous clear; every reduced output counts.
_GENERATED_BIAS = {"en": 0.9, "clear": 0.02}
register_workload(
    "mesh", make_burst_builder(bias=_GENERATED_BIAS), criterion="any_output", prefix=True
)
register_workload(
    "pipe", make_burst_builder(bias=_GENERATED_BIAS), criterion="any_output", prefix=True
)


def expected_rx_entries(frames: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
    """Expected RX FIFO stream: ``(byte, sop, eop)`` per entry.

    Each frame yields its payload bytes (first one flagged SOP) followed by
    a status entry with the CRC-ok bit set — assuming fault-free transport.
    """
    entries: List[Tuple[int, int, int]] = []
    for payload in frames:
        for i, byte in enumerate(payload):
            entries.append((byte, 1 if i == 0 else 0, 0))
        entries.append((0x01, 0, 1))
    return entries


def decode_rx_stream(trace: GoldenTrace) -> List[Tuple[int, int, int]]:
    """Extract the received ``(byte, sop, eop)`` entries from a golden trace."""
    out_index = {name: i for i, name in enumerate(trace.output_names)}
    val_bit = out_index["pkt_rx_val"]
    data_bits = [out_index[f"pkt_rx_data[{i}]"] for i in range(8)]
    sop_bit = out_index["pkt_rx_sop"]
    eop_bit = out_index["pkt_rx_eop"]
    entries: List[Tuple[int, int, int]] = []
    for cycle in range(trace.n_cycles):
        vector = trace.outputs[cycle]
        if (vector >> val_bit) & 1:
            byte = 0
            for j, bit in enumerate(data_bits):
                byte |= ((vector >> bit) & 1) << j
            entries.append((byte, (vector >> sop_bit) & 1, (vector >> eop_bit) & 1))
    return entries
