"""Compiled bit-parallel simulator tests."""

import pytest

from repro.sim import CompiledSimulator, lane_mask
from repro.synth import Module, Sig, synthesize


def test_lanes_are_independent(counter_netlist):
    """Different per-lane inputs evolve independently."""
    sim = CompiledSimulator(counter_netlist, n_lanes=2)
    sim.reset()
    sim.set_input("rst_n", 1)
    # lane 0: enabled; lane 1: disabled
    sim.set_input_lanes("en", 0b01)
    for _ in range(5):
        sim.step()
    sim.eval_comb()
    lane0 = sum(sim.get_bit(f"count[{i}]", 0) << i for i in range(4))
    lane1 = sum(sim.get_bit(f"count[{i}]", 1) << i for i in range(4))
    assert lane0 == 5
    assert lane1 == 0


def test_ff_state_pack_round_trip(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for _ in range(5):
        sim.step()
    packed = sim.ff_state_packed()
    sim2 = CompiledSimulator(counter_netlist)
    sim2.reset()
    sim2.load_ff_state_packed(packed)
    sim2.set_input("rst_n", 1)
    sim2.set_input("en", 1)
    sim2.eval_comb()
    assert sim2.get_word("count", 4) == 5


def test_flip_ff_injects_on_selected_lane(counter_netlist):
    sim = CompiledSimulator(counter_netlist, n_lanes=4)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 0)
    ff_name = counter_netlist.flip_flop_names()[2]  # bit 2 of the counter
    sim.flip_ff(ff_name, lanes=0b0100)
    sim.eval_comb()
    for lane in range(4):
        expected = 4 if lane == 2 else 0
        value = sum(sim.get_bit(f"count[{i}]", lane) << i for i in range(4))
        assert value == expected


def test_resize_lanes(counter_netlist):
    sim = CompiledSimulator(counter_netlist, n_lanes=1)
    sim.resize_lanes(8)
    assert sim.mask == lane_mask(8)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    sim.step()
    sim.eval_comb()
    for lane in range(8):
        assert sim.get_bit("count[0]", lane) == 1


def test_word_helpers(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_word("count", 0, 0)  # no-op width
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    sim.step()
    sim.eval_comb()
    assert sim.get_word("count", 4) == 1


def test_output_vector_packs_all_outputs(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input("en", 1)
    for _ in range(3):
        sim.step()
    sim.eval_comb()
    vector = sim.output_vector()
    for j, name in enumerate(counter_netlist.outputs):
        assert (vector >> j) & 1 == sim.get_bit(name)


@pytest.mark.parametrize("width, lane", [(1, 0), (65, 0), (65, 64)])
def test_packed_reads_match_the_per_bit_loop(tiny_mac, width, lane):
    """``ff_state_packed`` and ``output_vector`` pack exactly the bits a
    per-bit loop reads, on any lane of any width."""
    import random

    sim = CompiledSimulator(tiny_mac, n_lanes=width)
    rng = random.Random(width * 100 + lane)
    for _ in range(3):
        sim.values[:] = [rng.getrandbits(width) for _ in sim.values]
        state = 0
        for i, ff in enumerate(sim.flip_flops):
            state |= sim.get_bit(ff.output_net(), lane) << i
        outputs = 0
        for j, name in enumerate(tiny_mac.outputs):
            outputs |= sim.get_bit(name, lane) << j
        assert sim.ff_state_packed(lane) == state
        assert sim.output_vector(lane) == outputs


def test_partial_tick_latches_only_the_named_flip_flops(tiny_mac):
    """A partial tick writes each named flip-flop's Q exactly as the full
    tick does and leaves every other row as it was; naming every
    flip-flop returns the full tick itself."""
    import random

    sim = CompiledSimulator(tiny_mac, n_lanes=70)
    n_ffs = sim.n_flip_flops
    assert sim.compile_partial_tick(list(range(n_ffs))) is sim._tick_fn
    rng = random.Random(4)
    named = sorted(rng.sample(range(n_ffs), n_ffs // 2))
    partial = sim.compile_partial_tick(named)
    start = [rng.getrandbits(70) for _ in sim.values]
    sim.values[:] = start
    sim.tick()
    full = list(sim.values)
    sim.values[:] = start
    partial(sim.values, sim.mask)
    named_q = {sim._ff_q[i] for i in named}
    for idx, value in enumerate(sim.values):
        assert value == (full[idx] if idx in named_q else start[idx])


def test_clock_nets_forced_low(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset()
    sim.values[sim.net_index["clk"]] = sim.mask
    sim.eval_comb()
    assert sim.get("clk") == 0


def test_tie_cells_evaluate():
    m = Module("tie")
    r = m.reg("r")
    m.next(r, Sig("r"))
    from repro.synth.expr import Const

    m.output("one", Const(1))
    m.output("zero", Const(0))
    nl = synthesize(m)
    sim = CompiledSimulator(nl, n_lanes=5)
    sim.reset()
    sim.eval_comb()
    assert sim.get("one") == sim.mask
    assert sim.get("zero") == 0


def test_reset_sets_ff_value(counter_netlist):
    sim = CompiledSimulator(counter_netlist)
    sim.reset(ff_value=1)
    assert sim.ff_state_packed() == 0b1111


# --------------------------------------------- gate templates, lane invariant


def _template_fn(template, n_inputs):
    """Exec one ``_TEMPLATES`` form as ``f(v, m)`` over rows ``v[0..]``,
    output in row ``n_inputs``."""
    fields = {"o": n_inputs, **{f"i{k}": k for k in range(n_inputs)}}
    namespace = {}
    exec("def f(v, m):\n    " + template.format(**fields), namespace)
    return namespace["f"]


@pytest.mark.parametrize("n_lanes", [1, 63, 64, 65, 4096])
def test_templates_match_cell_library(n_lanes):
    """Every template equals the library function on the full truth table
    (spread over the lanes, plus random rows) and stays within the mask."""
    import itertools
    import random

    from repro.netlist.cells import default_library
    from repro.sim.compiled import _TEMPLATES

    library = default_library()
    mask = lane_mask(n_lanes)
    rng = random.Random(n_lanes)
    for name, template in _TEMPLATES.items():
        ctype = library[name]
        k = len(ctype.inputs)
        fn = _template_fn(template, k)
        rows = []
        # Lane j of input i is bit i of (j mod 2^k): every input combination
        # appears once the width reaches 2^k, on every lane of a 1-lane run.
        for combo in itertools.product((0, 1), repeat=k):
            rows.append([mask if bit else 0 for bit in combo])
        rows.append(
            [
                sum(((j % (1 << k)) >> i & 1) << j for j in range(n_lanes))
                for i in range(k)
            ]
        )
        rows.extend([rng.getrandbits(n_lanes) for _ in range(k)] for _ in range(8))
        for inputs in rows:
            v = list(inputs) + [0]
            fn(v, mask)
            assert v[k] == ctype.evaluate(inputs, mask), (name, n_lanes, inputs)
            assert 0 <= v[k] <= mask, (name, n_lanes)


def _rows_in_mask(sim):
    return all(0 <= value <= sim.mask for value in sim.values)


def test_value_rows_stay_within_mask(tiny_mac):
    """Seeded property: eval, tick, flip_ff, the activation load, forcing,
    and width growth/shrink all keep every row in [0, mask]."""
    import random

    rng = random.Random(5)
    sim = CompiledSimulator(tiny_mac, n_lanes=64)
    assert sim.n_flip_flops == len(tiny_mac.flip_flops())
    sim.reset()
    ff_q = sim._ff_q
    for step in range(40):
        op = step % 7
        if op == 0:
            for name in tiny_mac.inputs:
                sim.set_input_lanes(name, rng.getrandbits(sim.n_lanes))
            sim.eval_comb()
        elif op == 1:
            sim.tick()
        elif op == 2:
            sim.flip_ff(rng.randrange(len(ff_q)), rng.getrandbits(sim.n_lanes + 8))
        elif op == 3:
            # The scheduler's activation load: golden bits onto lanes ``am``.
            am = rng.getrandbits(sim.n_lanes)
            nam = am ^ sim.mask
            golden = rng.getrandbits(len(ff_q))
            for i, q in enumerate(ff_q):
                bit = am if (golden >> i) & 1 else 0
                sim.values[q] = (sim.values[q] & nam) | bit
        elif op == 4:
            # Forcing one lane of a flip-flop row, as stuck-at plans do.
            lv = 1 << rng.randrange(sim.n_lanes)
            q = ff_q[rng.randrange(len(ff_q))]
            sim.values[q] = (sim.values[q] & ~lv) | (lv if rng.random() < 0.5 else 0)
        elif op == 5:
            sim.resize_lanes(sim.n_lanes * 2, keep=True)
        else:
            before = list(sim.values)
            narrow = max(1, sim.n_lanes // 3)
            sim.resize_lanes(narrow, keep=True)
            assert sim.values == [value & lane_mask(narrow) for value in before]
        assert _rows_in_mask(sim), (step, op)
        sim.eval_comb()
        assert _rows_in_mask(sim), (step, op, "eval")


def test_resize_keep_preserves_live_lanes(counter_netlist):
    """Growing keeps every value and adds zero lanes; shrinking keeps the
    low lanes; both settle to the same per-lane state as a fresh run."""
    sim = CompiledSimulator(counter_netlist, n_lanes=3)
    sim.reset()
    sim.set_input("rst_n", 1)
    sim.set_input_lanes("en", 0b101)
    for _ in range(3):
        sim.step()
    before = list(sim.values)
    sim.resize_lanes(70, keep=True)
    assert sim.values == before
    sim.resize_lanes(2, keep=True)
    assert sim.values == [value & 0b11 for value in before]
    sim.eval_comb()
    assert sim.get_word("count", 4, lane=0) == 3
    assert sim.get_word("count", 4, lane=1) == 0


@pytest.fixture
def enabled_registers():
    """Registers behind hold muxes ``D = MUX(Q, new, en)``, built by hand.

    ``r``'s next state ``nxt`` is also a primary output (a root), ``u``'s
    next state ``w`` also feeds its enable, ``t0`` feeds registers behind
    two enables, ``p``'s mux holds an input, not its Q, and ``z`` is not
    latched, so its logic stays outside the cone.
    """
    from repro.netlist.core import Netlist

    netlist = Netlist("enabled_registers")
    netlist.add_input("clk", is_clock=True)
    for name in ("a", "b", "c"):
        netlist.add_input(name)
    cells = [
        ("en", "AND2", {"A": "a", "B": "b", "Z": "en"}),
        ("nxt", "XOR2", {"A": "r", "B": "c", "Z": "nxt"}),
        ("mux_r", "MUX2", {"A": "r", "B": "nxt", "S": "en", "Z": "d_r"}),
        ("t0", "INV", {"A": "c", "Z": "t0"}),
        ("t1", "NAND2", {"A": "t0", "B": "s", "Z": "t1"}),
        ("mux_s", "MUX2", {"A": "s", "B": "t1", "S": "en", "Z": "d_s"}),
        ("w", "INV", {"A": "b", "Z": "w"}),
        ("en2", "AND2", {"A": "w", "B": "a", "Z": "en2"}),
        ("mux_u", "MUX2", {"A": "u", "B": "w", "S": "en2", "Z": "d_u"}),
        ("mux_v", "MUX2", {"A": "v", "B": "t0", "S": "en2", "Z": "d_v"}),
        ("mux_p", "MUX2", {"A": "c", "B": "p", "S": "en", "Z": "d_p"}),
        ("nz", "INV", {"A": "z", "Z": "nz"}),
    ]
    for name, ctype, pins in cells:
        netlist.add_cell(name, ctype, pins)
    for q, d in (("r", "d_r"), ("s", "d_s"), ("u", "d_u"), ("v", "d_v"), ("p", "d_p"), ("z", "nz")):
        netlist.add_cell(f"ff_{q}", "DFF", {"D": d, "CK": "clk", "Q": q})
    netlist.add_output("nxt")
    return netlist


def test_cone_plan_gates_only_logic_behind_hold_muxes(enabled_registers):
    """Only the hold muxes and the logic that only their data inputs read
    are gated: not a root, not an enable's fan-in, not logic two enables
    share, not a mux that holds something other than its own flip-flop's
    Q."""
    sim = CompiledSimulator(enabled_registers)
    index = sim.net_index
    latched = [sim.ff_index[f"ff_{q}"] for q in "rsuvp"]
    plan = sim.cone_plan([index["nxt"]], latched)
    assert not plan.full
    assert sorted(plan.holds) == ["mux_r", "mux_s", "mux_u", "mux_v"]
    assert plan.gate == {
        "mux_r": index["en"],
        "mux_s": index["en"],
        "t1": index["en"],
        "mux_u": index["en2"],
        "mux_v": index["en2"],
    }


def _assert_gated_settle_matches_eval_comb(netlist):
    import random

    sim = CompiledSimulator(netlist, n_lanes=32)
    index = sim.net_index
    latched = [sim.ff_index[f"ff_{q}"] for q in "rsuvp"]
    settle = sim.compile_cone_eval(sim.cone_plan([index["nxt"]], latched))
    assert settle is not sim._eval_fn
    read = [index["nxt"]] + [sim._ff_d[i] for i in latched]
    sources = [index[name] for name in ("a", "b", "c", "r", "s", "u", "v", "p")]
    rng = random.Random(1)
    for combo in range(1 << len(sources)):
        start = [rng.getrandbits(32) for _ in sim.values]
        for bit, row in enumerate(sources):
            start[row] = sim.mask if combo >> bit & 1 else 0
        sim.values[:] = start
        sim.eval_comb()
        full = list(sim.values)
        sim.values[:] = start
        sim.values[index["clk"]] = 0
        settle(sim.values, sim.mask)
        assert [sim.values[row] for row in read] == [full[row] for row in read]


def test_enable_gated_cone_eval_matches_eval_comb(enabled_registers):
    """Every input and state combination, from stale random rows: the gated
    settle gives the roots and the latched D pins their eval_comb values."""
    _assert_gated_settle_matches_eval_comb(enabled_registers)


@pytest.mark.parametrize("chunk", [3, 2, 1])
def test_enable_gated_cone_eval_cut_at_the_chunk_bound(
    enabled_registers, monkeypatch, chunk
):
    """Chunks of at most *chunk* lines cut ``en``'s three-cell group into
    several blocks that each test the enable; the gated settle still
    matches eval_comb on every combination."""
    import repro.sim.compiled as compiled_mod

    monkeypatch.setattr(compiled_mod, "CHUNK_STATEMENTS", chunk)
    _assert_gated_settle_matches_eval_comb(enabled_registers)


def test_every_library_cell_has_a_settle_template():
    """The generated settle has no fallback dispatch: every combinational
    and tie type of the default library has a template, and a cell type
    without one is refused by name."""
    from repro.netlist.cells import CellType, DEFAULT_LIBRARY, default_library
    from repro.netlist.core import Netlist
    from repro.sim.compiled import _TEMPLATES, build_eval_statements

    assert {t.name for t in DEFAULT_LIBRARY if not t.is_sequential} <= set(_TEMPLATES)

    library = default_library()
    library.add(
        CellType(
            "MAJ3",
            ("A", "B", "C"),
            ("Z",),
            function=lambda ins, m: (ins[0] & ins[1]) | (ins[2] & (ins[0] | ins[1])),
        )
    )
    netlist = Netlist("majority", library=library)
    for name in ("a", "b", "c"):
        netlist.add_input(name)
    netlist.add_cell("maj", "MAJ3", {"A": "a", "B": "b", "C": "c", "Z": "z"})
    netlist.add_output("z")
    index = {name: i for i, name in enumerate(netlist.nets)}
    with pytest.raises(ValueError, match="'MAJ3'"):
        build_eval_statements(netlist, index)
    with pytest.raises(ValueError, match="'MAJ3'"):
        CompiledSimulator(netlist)
