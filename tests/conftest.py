"""Shared fixtures.

Heavier artifacts (synthesized MAC, golden trace, campaign, labelled
dataset) are session-scoped: they are deterministic, read-only in tests,
and account for almost all fixture cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.circuits import build_xgmac_workload, make_xgmac
from repro.data import get_dataset
from repro.features import build_dataset
from repro.netlist import Netlist
from repro.synth import Module, synthesize, wordlib


@pytest.fixture(scope="session")
def counter_netlist():
    """4-bit enable-gated counter (the smallest realistic sequential DUT)."""
    module = Module("counter4")
    enable = module.input("en")
    count = module.reg_bus("cnt", 4)
    module.next_en(count, enable, wordlib.inc(count))
    module.output_bus("count", count)
    return synthesize(module)


@pytest.fixture(scope="session")
def tiny_mac():
    """The tiny MAC preset netlist."""
    return make_xgmac("xgmac_tiny")


@pytest.fixture(scope="session")
def tiny_workload(tiny_mac):
    """Frame workload sized for the tiny MAC (short frames, small FIFOs)."""
    return build_xgmac_workload(
        tiny_mac, n_frames=4, min_len=2, max_len=3, gap=12, seed=7
    )


@pytest.fixture(scope="session")
def tiny_golden(tiny_workload):
    return tiny_workload.testbench.run_golden()


@pytest.fixture(scope="session")
def tiny_campaign():
    """A reduced flat campaign on the tiny MAC (session-cached): the
    ``tiny_workload`` settings, packet criterion, 16 ``legacy`` injections
    per flip-flop, seed 5."""
    spec = CampaignSpec(
        circuit="xgmac_tiny",
        n_frames=4,
        min_len=2,
        max_len=3,
        gap=12,
        workload_seed=7,
        n_injections=16,
        seed=5,
        schedule="legacy",
    )
    return CampaignEngine(spec).run()


@pytest.fixture(scope="session")
def tiny_dataset(tiny_mac, tiny_golden, tiny_campaign):
    return build_dataset(tiny_mac, tiny_golden, tiny_campaign)


@pytest.fixture(scope="session")
def cached_tiny_dataset(tmp_path_factory):
    """Preset 'tiny' dataset through the repro.data cache layer."""
    cache = tmp_path_factory.mktemp("repro_cache")
    return get_dataset("tiny", cache_dir=cache)


@pytest.fixture(scope="session")
def regression_data():
    """Smooth synthetic regression problem for the ML layer."""
    rng = np.random.default_rng(42)
    X = rng.uniform(-2.0, 2.0, size=(240, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 - 0.3 * X[:, 2] + 0.05 * rng.standard_normal(240)
    return X, y


@pytest.fixture(scope="session")
def direct_shift_netlist():
    """An 8-stage shift register wired Q to D with no logic in between.

    Flip-flop *i*'s D pin is flip-flop *i - 1*'s Q net, and a ninth
    flip-flop's synchronous reset reads stage 2's Q, so the tick must read
    every D/RN before it writes any Q.  The synthesized library circuits
    always put a gate between a Q and the next D, so they cannot catch a
    tick that interleaves reads and writes.
    """
    netlist = Netlist("direct_shift8")
    netlist.add_input("clk", is_clock=True)
    netlist.add_input("din")
    previous = "din"
    for i in range(8):
        netlist.add_cell(f"ff{i}", "DFF", {"D": previous, "CK": "clk", "Q": f"q{i}"})
        previous = f"q{i}"
    netlist.add_cell("ffr", "DFFR", {"D": "din", "RN": "q2", "CK": "clk", "Q": "qr"})
    netlist.add_cell("x", "XOR2", {"A": "q7", "B": "qr", "Z": "out"})
    netlist.add_output("out")
    return netlist
