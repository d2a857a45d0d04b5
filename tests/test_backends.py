"""The simulation substrate and the store identity it must not perturb.

Campaigns run on one engine, the compiled bit-parallel simulator.  These
tests pin it against the independent reference oracle on the seed circuits
(the fuzzed cross-checks live in ``repro.verify``), and pin the result
store's content addresses, which must not move when execution internals
change.
"""

from __future__ import annotations

import random

import pytest

import repro.sim.compiled as compiled_mod
from repro.campaigns import CampaignSpec
from repro.campaigns.policy import policy_signature
from repro.circuits import LIBRARY_CIRCUITS, get_circuit
from repro.sim import CompiledSimulator
from repro.verify import OracleSimulator

# ------------------------------------------------------------ cycle parity


#: ``(circuit, chunk size)``: the seed circuits at the default chunk size,
#: then every library circuit and the Q-to-D shift register (the
#: ``direct_shift_netlist`` fixture) with the generated code cut every 3
#: statements, so each settle and tick crosses many chunk boundaries.
PARITY_CASES = [(circuit, None) for circuit in ("counter16", "lfsr16", "gray8")] + [
    (circuit, 3) for circuit in LIBRARY_CIRCUITS + ["direct_shift"]
]


@pytest.mark.parametrize(
    "circuit, chunk",
    [
        pytest.param(
            circuit, chunk, id=circuit if chunk is None else f"{circuit}-chunk{chunk}"
        )
        for circuit, chunk in PARITY_CASES
    ],
)
def test_cycle_parity_random_stimulus(circuit, chunk, monkeypatch, request):
    """Every lane of the compiled simulator matches a one-lane oracle
    net-for-net under independent random stimulus."""
    if chunk is not None:
        monkeypatch.setattr(compiled_mod, "CHUNK_STATEMENTS", chunk)
    if circuit == "direct_shift":
        netlist = request.getfixturevalue("direct_shift_netlist")
    else:
        netlist = get_circuit(circuit)
    n_lanes = 5
    sim = CompiledSimulator(netlist, n_lanes=n_lanes)
    sim.reset()
    oracles = [OracleSimulator(netlist) for _ in range(n_lanes)]
    for oracle in oracles:
        oracle.reset()
    rng = random.Random(2024)
    clocks = set(netlist.clocks)
    inputs = [name for name in netlist.inputs if name not in clocks]
    for _cycle in range(24):
        for name in inputs:
            lanes = rng.getrandbits(n_lanes)
            sim.set_input_lanes(name, lanes)
            for lane, oracle in enumerate(oracles):
                oracle.set_input(name, (lanes >> lane) & 1)
        sim.eval_comb()
        for oracle in oracles:
            oracle.eval_comb()
        for net in netlist.nets:
            if net in clocks:
                continue
            for lane, oracle in enumerate(oracles):
                assert sim.get_bit(net, lane) == oracle.values[net], (net, lane)
        sim.tick()
        for oracle in oracles:
            oracle.tick()


# ----------------------------------------------------------- store identity

#: ``(cache_key, family_key, policy_signature)`` of three ``xgmac_tiny``
#: specs, recorded before the ``backend``/``scheduler`` execution knobs were
#: removed from :class:`CampaignSpec`.  Every stored campaign stays
#: addressable only while these literals hold.
PINNED_IDENTITIES = {
    "flat_legacy": (
        dict(schedule="legacy"),
        ("7be50880a85d1263", "7be50880a85d1263", "1a2977833a3a6707"),
    ),
    "flat_stream": (
        dict(schedule="stream"),
        ("8d58f1013e756020", "04d6e074c995ec52", "1a2977833a3a6707"),
    ),
    "sequential": (
        dict(schedule="stream", policy="sequential", target_margin=0.1),
        ("8d58f1013e756020", "04d6e074c995ec52", "9609220f165f8071"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_IDENTITIES))
def test_store_identity_is_pinned(name):
    overrides, expected = PINNED_IDENTITIES[name]
    spec = CampaignSpec(circuit="xgmac_tiny", n_injections=40, **overrides)
    assert (spec.cache_key(), spec.family_key(), policy_signature(spec)) == expected


RETIRED_FIELDS = {
    "backend": "compiled",
    "scheduler": "adaptive",
    "horizon": None,
    "max_lanes": 256,
    "check_interval": 8,
}


def test_spec_roundtrip_ignores_retired_execution_knobs():
    """Store documents written before the knobs were removed still carry
    them in their spec record; they load unchanged."""
    spec = CampaignSpec(circuit="xgmac_tiny", schedule="legacy")
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    old = {**spec.to_dict(), **RETIRED_FIELDS}
    assert CampaignSpec.from_dict(old) == spec
    assert not set(RETIRED_FIELDS) & set(spec.to_dict())
