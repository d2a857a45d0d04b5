"""Logic-value algebra for the simulators.

Two representations are used across the code base:

* **Three-valued scalars** (:data:`ZERO`, :data:`ONE`, :data:`X`) for the
  event-driven simulator, where unknown start-up state must propagate.
* **Bit-parallel integers** for the compiled cycle simulator, where every bit
  lane of a Python integer is an independent two-valued simulation run (the
  trick that makes the paper's 170-injections-per-flip-flop campaign
  tractable in pure Python).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netlist.cells import CellType

__all__ = [
    "ZERO",
    "ONE",
    "X",
    "LogicValue",
    "eval3",
    "lane_mask",
    "broadcast",
    "extract_lane",
    "set_lanes",
    "lanes_mask",
    "unpack_words",
    "lane_rows",
]

ZERO = 0
ONE = 1
#: The unknown value of three-valued simulation.
X = 2

LogicValue = int

_VALID = (ZERO, ONE, X)


def lane_mask(n_lanes: int) -> int:
    """All-ones mask covering *n_lanes* bit lanes."""
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    return (1 << n_lanes) - 1


def broadcast(bit: int, mask: int) -> int:
    """Replicate a scalar 0/1 across every lane of *mask*."""
    return mask if bit else 0


def extract_lane(value: int, lane: int) -> int:
    """Read one lane out of a bit-parallel value."""
    return (value >> lane) & 1


def set_lanes(bits: int) -> List[int]:
    """Indices of the set bits (lanes) of *bits*, ascending.

    Costs one pass over the width plus O(1) per lane, where peeling the
    lowest bit off repeatedly (``bits & -bits``, ``bits ^= low``) costs the
    width for every lane.
    """
    packed = np.frombuffer(
        bits.to_bytes((bits.bit_length() + 7) >> 3, "little"), dtype=np.uint8
    )
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


def lanes_mask(lanes: Sequence[int]) -> int:
    """The lane vector with exactly *lanes* set (non-negative, any order).

    The inverse of :func:`set_lanes`: one pass over the width, where OR-ing
    ``1 << lane`` per lane costs the width for every lane.
    """
    if not lanes:
        return 0
    flags = np.zeros((max(lanes) >> 3) + 1 << 3, dtype=np.uint8)
    flags[lanes] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def unpack_words(words: Sequence[int], width: int) -> np.ndarray:
    """Bit *i* of ``words[k]`` at ``[k, i]``: a ``len(words)`` × *width*
    array of 0/1 bytes, unpacked in one NumPy pass."""
    n_bytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(word.to_bytes(n_bytes, "little") for word in words),
        dtype=np.uint8,
    ).reshape(len(words), n_bytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :width]


def lane_rows(words: Sequence[int], width: int) -> List[int]:
    """The transpose of *words*: row *i* is the lane vector whose bit *k*
    is bit *i* of ``words[k]``."""
    rows = np.packbits(unpack_words(words, width), axis=0, bitorder="little").T
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


_EVAL3_CACHE: Dict[Tuple[str, Tuple[LogicValue, ...]], LogicValue] = {}


def eval3(ctype: CellType, inputs: Sequence[LogicValue]) -> LogicValue:
    """Evaluate a combinational cell under three-valued inputs.

    Exact X-propagation: the unknown inputs are enumerated over both binary
    assignments; if every assignment produces the same output the gate masks
    the unknowns (e.g. ``AND2(0, X) == 0``), otherwise the output is X.
    """
    inputs = tuple(inputs)
    for value in inputs:
        if value not in _VALID:
            raise ValueError(f"invalid logic value {value!r}")
    key = (ctype.name, inputs)
    cached = _EVAL3_CACHE.get(key)
    if cached is not None:
        return cached
    x_positions = [i for i, v in enumerate(inputs) if v == X]
    if not x_positions:
        result = ctype.evaluate(list(inputs), mask=1)
    else:
        outcomes = set()
        scratch = list(inputs)
        for assignment in product((ZERO, ONE), repeat=len(x_positions)):
            for pos, bit in zip(x_positions, assignment):
                scratch[pos] = bit
            outcomes.add(ctype.evaluate(scratch, mask=1))
            if len(outcomes) > 1:
                break
        result = outcomes.pop() if len(outcomes) == 1 else X
    _EVAL3_CACHE[key] = result
    return result
