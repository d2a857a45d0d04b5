"""Registry of benchmark circuits.

Maps circuit names to generator functions so datasets, examples and tests
can request designs by name (``get_circuit("xgmac_mini")``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..netlist.core import Netlist
from .counters import make_counter, make_gray_counter, make_lfsr, make_shift_register
from .crc import make_crc32
from .fifo import make_fifo
from .fsm import make_fsm_controller
from .generator import GENERATED_CIRCUITS, GENERATED_NETLIST_NAMES, GENERATED_PRESETS
from .xgmac import XGMAC_PRESETS, make_xgmac

__all__ = [
    "CIRCUIT_BUILDERS",
    "GENERATED_CIRCUITS",
    "LIBRARY_CIRCUITS",
    "get_circuit",
    "available_circuits",
    "netlist_name",
]


def _preset_builder(name: str) -> Callable[[], Netlist]:
    def build() -> Netlist:
        return make_xgmac(name)

    return build


CIRCUIT_BUILDERS: Dict[str, Callable[[], Netlist]] = {
    "counter8": lambda: make_counter(8),
    "counter16": lambda: make_counter(16),
    "shiftreg8": lambda: make_shift_register(8),
    "shiftreg16": lambda: make_shift_register(16),
    "lfsr8": lambda: make_lfsr(8),
    "lfsr16": lambda: make_lfsr(16),
    "gray8": lambda: make_gray_counter(8),
    "fifo4x4": lambda: make_fifo(4, 4),
    "fifo8x4": lambda: make_fifo(8, 4),
    "crc32": make_crc32,
    "fsm_ctrl": lambda: make_fsm_controller(4),
}
for _preset in XGMAC_PRESETS:
    CIRCUIT_BUILDERS[_preset] = _preset_builder(_preset)
CIRCUIT_BUILDERS.update(GENERATED_PRESETS)

#: The small self-contained circuits (everything except the MAC presets and
#: the generated 2k–100k-FF composites) — the population the cross-circuit
#: transfer experiment sweeps.  The generated presets stay out: sweeping a
#: tiny-preset experiment over a 100k-FF mesh is never what a caller means.
LIBRARY_CIRCUITS: List[str] = sorted(
    name
    for name in CIRCUIT_BUILDERS
    if not name.startswith("xgmac") and name not in GENERATED_PRESETS
)


def get_circuit(name: str) -> Netlist:
    """Build the named benchmark circuit."""
    try:
        builder = CIRCUIT_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown circuit {name!r}; available: {available_circuits()}") from None
    return builder()


def netlist_name(circuit: str) -> str:
    """Name of the netlist :func:`get_circuit` builds for *circuit*, without
    building it (generated presets name their netlist after its shape)."""
    return GENERATED_NETLIST_NAMES.get(circuit, circuit)


def available_circuits() -> List[str]:
    """Names of all registered benchmark circuits."""
    return sorted(CIRCUIT_BUILDERS)
