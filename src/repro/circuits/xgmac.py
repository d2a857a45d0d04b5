"""A 10GE-MAC-style Ethernet MAC core (the paper's device under test).

The paper evaluates its methodology on the OpenCores 10GE MAC: a core with
"control logic, state machines, FIFOs and memory interfaces" that moves
frames between a user packet interface and an XGMII PHY interface.  This
module rebuilds that architecture from scratch on our RTL substrate, scaled
to an 8-bit datapath:

* **TX path** — user packet write interface → TX FIFO → transmit FSM that
  frames the payload with XGMII control codes and appends a CRC-32;
* **XGMII interface** — byte + control-bit lanes using start (0xFB),
  terminate (0xFD) and idle (0x07) control codes, registered outputs and
  registered RX inputs (the testbench loops TX back into RX, as in the
  paper);
* **RX path** — receive FSM with a four-byte delay line that strips the
  trailing CRC, a running CRC checker, RX FIFO, and a user packet read
  interface; every frame is terminated in the FIFO by a status entry
  (``bit0`` = CRC ok, ``bit1`` = aborted);
* **statistics counters** (saturating) and a small **config/status register
  file**, giving the design the quasi-static state populations a real MAC
  has.

Presets (:data:`XGMAC_PRESETS`) size the FIFOs/counters: ``full`` lands
within a few percent of the paper's 1054 flip-flops, ``mini``/``tiny`` are
faster variants for tests and CI benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netlist.core import Netlist
from ..synth.expr import And, Const, Mux, Not, Or, Sig
from ..synth.module import Module
from ..synth.synthesis import synthesize
from ..synth.wordlib import (
    add,
    const_word,
    decode,
    eq_const,
    inc,
    lt,
    mux_word,
    onehot_mux,
    reduce_and,
    resize,
)
from .counters import add_saturating_counter
from .crc import crc32_update_word
from .fifo import add_sync_fifo
from .fsm import FSM

__all__ = ["XgMacConfig", "XGMAC_PRESETS", "build_xgmac_module", "make_xgmac"]

IDLE_CODE = 0x07
START_CODE = 0xFB
TERM_CODE = 0xFD


@dataclass(frozen=True)
class XgMacConfig:
    """Size parameters of the MAC."""

    name: str
    fifo_depth: int = 32
    stat_width: int = 16
    with_config_regs: bool = True
    len_width: int = 11


XGMAC_PRESETS: Dict[str, XgMacConfig] = {
    "xgmac_tiny": XgMacConfig("xgmac_tiny", fifo_depth=4, stat_width=4, with_config_regs=False, len_width=5),
    "xgmac_mini": XgMacConfig("xgmac_mini", fifo_depth=8, stat_width=8, with_config_regs=True, len_width=8),
    "xgmac": XgMacConfig("xgmac", fifo_depth=32, stat_width=16, with_config_regs=True, len_width=11),
}


def build_xgmac_module(config: XgMacConfig) -> Module:
    """Build the RTL module for the MAC described by *config*."""
    m = Module(config.name)

    # ----------------------------------------------------------- interfaces
    tx_data = m.input_bus("pkt_tx_data", 8)
    tx_sop = m.input("pkt_tx_sop")
    tx_eop = m.input("pkt_tx_eop")
    tx_val = m.input("pkt_tx_val")
    rx_ren = m.input("pkt_rx_ren")
    rxd_pin = m.input_bus("xgmii_rxd", 8)
    rxc_pin = m.input("xgmii_rxc")

    # Registered XGMII RX inputs (input staging flops).
    rxd = m.reg_bus("rxd_q", 8)
    m.next(rxd, rxd_pin)
    rxc = m.reg("rxc_q")
    m.next(rxc, rxc_pin)

    # ------------------------------------------------------------ TX path
    txf = add_sync_fifo(
        m,
        "txf",
        width=10,
        depth=config.fifo_depth,
        wr_en=tx_val,
        wr_data=list(tx_data) + [tx_sop, tx_eop],
        rd_en=Sig("tx_rd_en"),
    )
    head_data = txf.rd_data[:8]
    head_eop = txf.rd_data[9]
    m.output("pkt_tx_full", txf.full)

    # Complete frames currently buffered (an EOP was written, not yet read).
    fa_width = max(3, config.fifo_depth.bit_length())
    frames_avail = m.reg_bus("tx_frames_avail", fa_width)
    fa_inc = m.assign("fa_inc", And.of(txf.do_write, tx_eop))
    fa_dec = m.assign("fa_dec", And.of(txf.do_read, head_eop))
    fa_plus = inc(frames_avail)
    fa_minus, _ = add(frames_avail, const_word((1 << fa_width) - 1, fa_width))
    fa_next = mux_word(
        And.of(fa_inc, Not.of(fa_dec)),
        fa_plus,
        mux_word(And.of(fa_dec, Not.of(fa_inc)), fa_minus, frames_avail),
    )
    m.next(frames_avail, fa_next)
    frame_ready = m.assign("tx_frame_ready", Not.of(reduce_and([Not.of(b) for b in frames_avail])))

    tx_fsm = FSM(m, "tx", ["IDLE", "START", "DATA", "CRC", "TERM", "IFG"])
    crc_idx = m.reg_bus("tx_crc_idx", 2)
    ifg_cnt = m.reg_bus("tx_ifg", 2)
    in_idle = m.assign("tx_in_idle", tx_fsm.is_in("IDLE"))
    in_start = m.assign("tx_in_start", tx_fsm.is_in("START"))
    in_data = m.assign("tx_in_data", tx_fsm.is_in("DATA"))
    in_crc = m.assign("tx_in_crc", tx_fsm.is_in("CRC"))
    in_term = m.assign("tx_in_term", tx_fsm.is_in("TERM"))
    in_ifg = m.assign("tx_in_ifg", tx_fsm.is_in("IFG"))

    tx_fsm.transition("IDLE", frame_ready, "START")
    tx_fsm.transition("START", Const(1), "DATA")
    tx_fsm.transition("DATA", head_eop, "CRC")
    tx_fsm.transition("CRC", eq_const(crc_idx, 3), "TERM")
    tx_fsm.transition("TERM", Const(1), "IFG")
    tx_fsm.transition("IFG", eq_const(ifg_cnt, 3), "IDLE")
    tx_fsm.build()

    m.assign("tx_rd_en", in_data)
    m.next(crc_idx, mux_word(in_crc, inc(crc_idx), const_word(0, 2)))
    m.next(ifg_cnt, mux_word(in_ifg, inc(ifg_cnt), const_word(0, 2)))

    tx_crc = m.reg_bus("tx_crc", 32)
    tx_crc_upd = crc32_update_word(tx_crc, head_data)
    m.next(
        tx_crc,
        mux_word(in_start, const_word(0, 32), mux_word(in_data, tx_crc_upd, tx_crc)),
    )

    # CRC bytes transmitted MSB first: byte k carries crc bits [24-8k .. 31-8k].
    crc_bytes = [tx_crc[24:32], tx_crc[16:24], tx_crc[8:16], tx_crc[0:8]]
    crc_byte = onehot_mux(decode(crc_idx), crc_bytes)

    txd_next = mux_word(
        in_start,
        const_word(START_CODE, 8),
        mux_word(
            in_data,
            head_data,
            mux_word(
                in_crc,
                crc_byte,
                mux_word(in_term, const_word(TERM_CODE, 8), const_word(IDLE_CODE, 8)),
            ),
        ),
    )
    txc_next = Or.of(in_idle, in_start, in_term, in_ifg)
    txd_reg = m.reg_bus("txd_reg", 8)
    txc_reg = m.reg("txc_reg")
    m.next(txd_reg, txd_next)
    m.next(txc_reg, txc_next)
    m.output_bus("xgmii_txd", txd_reg)
    m.output("xgmii_txc", txc_reg)

    # ------------------------------------------------------------ RX path
    is_start = m.assign("rx_is_start", And.of(rxc, eq_const(rxd, START_CODE)))
    is_term = m.assign("rx_is_term", And.of(rxc, eq_const(rxd, TERM_CODE)))

    rx_fsm = FSM(m, "rx", ["IDLE", "DATA"])
    in_rx_data = m.assign("rx_in_data", rx_fsm.is_in("DATA"))
    data_event = m.assign("rx_data_event", And.of(in_rx_data, Not.of(rxc)))
    term_event = m.assign("rx_term_event", And.of(in_rx_data, is_term))
    abort_event = m.assign(
        "rx_abort_event", And.of(in_rx_data, rxc, Not.of(is_term), Not.of(is_start))
    )
    rx_fsm.transition("IDLE", is_start, "DATA")
    rx_fsm.transition("DATA", is_start, "DATA")
    rx_fsm.transition("DATA", Or.of(term_event, abort_event), "IDLE")
    rx_fsm.build()

    # Four-byte delay line withholding the CRC field from the RX FIFO.
    dl = [m.reg_bus(f"rx_dl{i}", 8, resettable=False) for i in range(4)]
    m.next_en(dl[0], data_event, rxd)
    for i in range(1, 4):
        m.next_en(dl[i], data_event, dl[i - 1])
    dl_count = m.reg_bus("rx_dl_count", 3)
    dl_full = m.assign("rx_dl_full", eq_const(dl_count, 4))
    dl_next = mux_word(And.of(data_event, Not.of(dl_full)), inc(dl_count), dl_count)
    m.next(dl_count, mux_word(is_start, const_word(0, 3), dl_next))

    rx_crc = m.reg_bus("rx_crc", 32)
    rx_crc_upd = crc32_update_word(rx_crc, rxd)
    m.next(
        rx_crc,
        mux_word(is_start, const_word(0, 32), mux_word(data_event, rx_crc_upd, rx_crc)),
    )
    crc_ok = m.assign("rx_crc_ok", reduce_and([Not.of(b) for b in rx_crc]))

    rx_first = m.reg("rx_first")
    data_write = m.assign("rx_data_write", And.of(data_event, dl_full))
    status_write = m.assign("rx_status_write", Or.of(term_event, abort_event))
    m.next(
        rx_first,
        Mux.of(is_start, Const(1), Mux.of(data_write, Const(0), rx_first)),
    )

    status_byte = resize([crc_ok, abort_event], 8)
    data_entry = list(dl[3]) + [Sig("rx_first"), Const(0)]
    status_entry = status_byte + [Const(0), Const(1)]
    rxf = add_sync_fifo(
        m,
        "rxf",
        width=10,
        depth=config.fifo_depth,
        wr_en=Or.of(data_write, status_write),
        wr_data=mux_word(status_write, status_entry, data_entry),
        rd_en=rx_ren,
    )

    # Registered packet read interface.
    rx_out = m.reg_bus("rx_out", 10)
    rx_val_q = m.reg("rx_val_q")
    m.next(rx_out, mux_word(rxf.do_read, rxf.rd_data, rx_out))
    m.next(rx_val_q, rxf.do_read)
    m.output_bus("pkt_rx_data", rx_out[:8])
    m.output("pkt_rx_sop", rx_out[8])
    m.output("pkt_rx_eop", rx_out[9])
    m.output("pkt_rx_val", rx_val_q)
    m.output("pkt_rx_avail", Not.of(rxf.empty))

    # --------------------------------------------------------- statistics
    sw = config.stat_width
    tx_frame_cnt = add_saturating_counter(m, "stat_tx_frames", sw, in_term)
    tx_byte_cnt = add_saturating_counter(m, "stat_tx_bytes", sw, in_data)
    rx_frame_cnt = add_saturating_counter(m, "stat_rx_frames", sw, term_event)
    rx_err_cnt = add_saturating_counter(
        m, "stat_rx_crc_err", sw, And.of(term_event, Not.of(crc_ok))
    )
    rx_abort_cnt = add_saturating_counter(m, "stat_rx_aborts", sw, abort_event)
    rx_byte_cnt = add_saturating_counter(m, "stat_rx_bytes", sw, data_write)
    m.output_bus("stat_tx_frames_o", tx_frame_cnt)
    m.output_bus("stat_tx_bytes_o", tx_byte_cnt)
    m.output_bus("stat_rx_frames_o", rx_frame_cnt)
    m.output_bus("stat_rx_crc_err_o", rx_err_cnt)
    m.output_bus("stat_rx_aborts_o", rx_abort_cnt)
    m.output_bus("stat_rx_bytes_o", rx_byte_cnt)

    # Frame-length monitors.
    lw = config.len_width
    tx_len = m.reg_bus("tx_len", lw)
    m.next(
        tx_len,
        mux_word(in_start, const_word(0, lw), mux_word(in_data, inc(tx_len), tx_len)),
    )
    rx_len = m.reg_bus("rx_len", lw)
    m.next(
        rx_len,
        mux_word(is_start, const_word(0, lw), mux_word(data_write, inc(rx_len), rx_len)),
    )
    rx_len_seen = m.reg("rx_len_seen")
    m.next(rx_len_seen, Or.of(rx_len_seen, term_event))
    rx_min_len = m.reg_bus("rx_min_len", lw)
    rx_max_len = m.reg_bus("rx_max_len", lw)
    new_min = Or.of(Not.of(rx_len_seen), lt(rx_len, rx_min_len))
    new_max = lt(rx_max_len, rx_len)
    m.next_en(rx_min_len, And.of(term_event, new_min), rx_len)
    m.next_en(rx_max_len, And.of(term_event, Or.of(new_max, Not.of(rx_len_seen))), rx_len)
    m.output_bus("rx_min_len_o", rx_min_len)
    m.output_bus("rx_max_len_o", rx_max_len)

    # ------------------------------------------------ config register file
    if config.with_config_regs:
        cfg_addr = m.input_bus("cfg_addr", 3)
        cfg_wdata = m.input_bus("cfg_wdata", 8)
        cfg_wen = m.input("cfg_wen")
        sel = decode(cfg_addr)
        cfg_regs: List[List[Sig]] = []
        for i in range(8):
            reg = m.reg_bus(f"cfg_reg{i}", 8)
            m.next_en(reg, And.of(cfg_wen, sel[i]), list(cfg_wdata))
            cfg_regs.append(reg)
        m.output_bus("cfg_rdata", onehot_mux(sel, cfg_regs))

    return m


def make_xgmac(preset: str = "xgmac_mini") -> Netlist:
    """Synthesize one of the :data:`XGMAC_PRESETS` into a gate-level netlist."""
    config = XGMAC_PRESETS.get(preset)
    if config is None:
        raise KeyError(f"unknown preset {preset!r}; choose from {sorted(XGMAC_PRESETS)}")
    return synthesize(build_xgmac_module(config))
