"""Unit tests for the standard-cell library."""

import itertools

import pytest

from repro.netlist.cells import CellKind, DEFAULT_LIBRARY, default_library


def brute_force(fn, n_inputs):
    """Evaluate a python truth function over all input combinations."""
    table = {}
    for bits in itertools.product((0, 1), repeat=n_inputs):
        table[bits] = fn(*bits) & 1
    return table


REFERENCE = {
    "INV": lambda a: ~a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a & b,
    "NAND2": lambda a, b: ~(a & b),
    "OR2": lambda a, b: a | b,
    "NOR2": lambda a, b: ~(a | b),
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: ~(a ^ b),
    "AND3": lambda a, b, c: a & b & c,
    "NAND3": lambda a, b, c: ~(a & b & c),
    "OR3": lambda a, b, c: a | b | c,
    "NOR3": lambda a, b, c: ~(a | b | c),
    "AND4": lambda a, b, c, d: a & b & c & d,
    "NAND4": lambda a, b, c, d: ~(a & b & c & d),
    "OR4": lambda a, b, c, d: a | b | c | d,
    "NOR4": lambda a, b, c, d: ~(a | b | c | d),
    "MUX2": lambda a, b, s: b if s else a,
    "AOI21": lambda a, b, c: ~((a & b) | c),
    "AOI22": lambda a, b, c, d: ~((a & b) | (c & d)),
    "OAI21": lambda a, b, c: ~((a | b) & c),
    "OAI22": lambda a, b, c, d: ~((a | b) & (c | d)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_cell_truth_table(name):
    ctype = DEFAULT_LIBRARY[name]
    table = brute_force(REFERENCE[name], len(ctype.inputs))
    for bits, expected in table.items():
        assert ctype.evaluate(list(bits), mask=1) == expected, (name, bits)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_cell_bit_parallel_lanes(name):
    """Bit-parallel evaluation equals per-lane scalar evaluation."""
    ctype = DEFAULT_LIBRARY[name]
    n = len(ctype.inputs)
    lanes = list(itertools.product((0, 1), repeat=n))
    mask = (1 << len(lanes)) - 1
    packed_inputs = []
    for pin in range(n):
        value = 0
        for lane, bits in enumerate(lanes):
            value |= bits[pin] << lane
        packed_inputs.append(value)
    packed_out = ctype.evaluate(packed_inputs, mask=mask)
    for lane, bits in enumerate(lanes):
        assert (packed_out >> lane) & 1 == ctype.evaluate(list(bits), mask=1)


def test_tie_cells():
    assert DEFAULT_LIBRARY["TIE0"].evaluate([], mask=0b111) == 0
    assert DEFAULT_LIBRARY["TIE1"].evaluate([], mask=0b111) == 0b111


def test_sequential_cells_have_no_function():
    dff = DEFAULT_LIBRARY["DFF"]
    assert dff.is_sequential
    with pytest.raises(ValueError):
        dff.evaluate([0, 0], mask=1)


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        DEFAULT_LIBRARY["AND2"].evaluate([1], mask=1)


def test_full_name_round_trip():
    lib = DEFAULT_LIBRARY
    assert lib.full_name("NAND2", 2) == "NAND2_X2"
    assert lib.parse_full_name("NAND2_X2") == ("NAND2", 2)
    assert lib.parse_full_name("NAND2") == ("NAND2", 1)
    with pytest.raises(KeyError):
        lib.parse_full_name("FOO_X9")
    with pytest.raises(ValueError):
        lib.full_name("NAND2", 3)


def test_library_contents():
    lib = default_library()
    assert "DFF" in lib and "DFFR" in lib
    assert len(lib) > 20
    assert all(ct.outputs for ct in lib)


def test_duplicate_cell_type_rejected():
    lib = default_library()
    with pytest.raises(ValueError):
        lib.add(lib["INV"])


def test_cell_kind_partition():
    lib = default_library()
    for ctype in lib:
        assert ctype.kind in (CellKind.COMBINATIONAL, CellKind.SEQUENTIAL, CellKind.TIE)
        if ctype.kind == CellKind.COMBINATIONAL:
            assert ctype.function is not None
