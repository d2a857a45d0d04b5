"""Integration: batched injector vs. brute-force fault simulation.

The fault injector restarts from recorded golden state, simulates many
lanes at once and retires lanes early.  This test cross-checks its verdicts
against the obvious reference: one full re-simulation from reset per fault,
with the flip applied at the right cycle and the criterion evaluated on
every cycle to the end of the trace.
"""

import pytest

from repro.faultinjection import PacketInterfaceCriterion
from repro.faultinjection.injector import FaultInjector
from repro.sim import CompiledSimulator


def brute_force_failure(netlist, workload, ff_name, cycle):
    """Reference fault simulation: from reset, flip at `cycle`, full trace."""
    tb = workload.testbench
    sim = CompiledSimulator(netlist, 1)
    criterion = PacketInterfaceCriterion(workload.valid_nets, workload.data_nets)
    bound = criterion.bind(netlist, sim)

    golden = tb.run_golden()
    lb = tb.loopbacks[0]
    out_idx = {n: i for i, n in enumerate(netlist.outputs)}
    in_idx = {n: i for i, n in enumerate(netlist.inputs)}
    taps = [[0] * lb.delay for _ in lb.sources]
    sim.reset()
    failed = False
    for c in range(tb.n_cycles):
        if c == cycle:
            sim.flip_ff(ff_name, 1)
        vec = tb.schedule[c]
        for i, dst in enumerate(lb.targets):
            k = in_idx[dst]
            vec = (vec & ~(1 << k)) | (taps[i][c % lb.delay] << k)
        for i, name in enumerate(netlist.inputs):
            sim.set_input(name, (vec >> i) & 1)
        sim.eval_comb()
        if bound.evaluate(sim.values, golden.outputs[c], 1):
            failed = True
        ov = sim.output_vector()
        for i, src in enumerate(lb.sources):
            taps[i][c % lb.delay] = (ov >> out_idx[src]) & 1
        sim.tick()
    return failed


@pytest.mark.parametrize("offset", [0, 3, 7, 11])
def test_batched_injector_matches_bruteforce(tiny_mac, tiny_workload, tiny_golden, offset):
    criterion = PacketInterfaceCriterion(tiny_workload.valid_nets, tiny_workload.data_nets)
    injector = FaultInjector(tiny_mac, tiny_workload.testbench, tiny_golden, criterion)
    first, _last = tiny_workload.active_window
    cycle = first + 2 + offset
    # A representative mix of flip-flop kinds in one batch.
    targets = [
        "ff_tx_state[0]",
        "ff_txf_rd_ptr[0]",
        "ff_rx_crc[3]",
        "ff_rxf_mem0[2]",
        "ff_stat_tx_frames[0]",
        "ff_rx_dl0[1]",
    ]
    indices = [injector.ff_index(name) for name in targets]
    outcome = injector.run_batch(cycle, indices)
    for lane, name in enumerate(targets):
        batched, _latency = outcome.verdict(lane)
        reference = brute_force_failure(tiny_mac, tiny_workload, name, cycle)
        assert batched == reference, (name, cycle)
