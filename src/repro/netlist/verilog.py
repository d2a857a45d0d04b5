"""Structural Verilog writer and parser for flat gate-level netlists.

The paper's flow starts from a gate-level Verilog netlist produced by
Synopsys Design Compiler.  This module closes the loop in our substrate: any
:class:`~repro.netlist.core.Netlist` can be written out as structural Verilog
and read back, which both documents the designs in a standard format and
exercises a realistic netlist-ingestion path.

Only the flat, mapped subset of Verilog is supported: one module, scalar
wires, and standard-cell instantiations with named port connections — which
is exactly what a synthesis tool emits for this library.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .cells import CellLibrary, DEFAULT_LIBRARY
from .core import Netlist, NetlistError

__all__ = ["write_verilog", "parse_verilog", "escape_identifier"]

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def escape_identifier(name: str) -> str:
    """Escape *name* per Verilog rules (``\\foo[3] `` for non-simple names)."""
    if _IDENT_RE.match(name):
        return name
    return "\\" + name + " "


def write_verilog(netlist: Netlist) -> str:
    """Serialize *netlist* as a structural Verilog module."""
    lines: List[str] = []
    ports = netlist.inputs + netlist.outputs
    lines.append(f"// Generated by repro.netlist.verilog — design {netlist.name}")
    lines.append(f"module {escape_identifier(netlist.name)} (")
    lines.append("  " + ",\n  ".join(escape_identifier(p) for p in ports))
    lines.append(");")
    for name in netlist.inputs:
        lines.append(f"  input {escape_identifier(name)};")
    for name in netlist.outputs:
        lines.append(f"  output {escape_identifier(name)};")
    port_set = set(ports)
    for name in netlist.nets:
        if name not in port_set:
            lines.append(f"  wire {escape_identifier(name)};")
    for cell in netlist.iter_cells():
        conns = ", ".join(
            f".{pin}({escape_identifier(net)})" for pin, net in sorted(cell.connections.items())
        )
        lines.append(f"  {cell.type_name} {escape_identifier(cell.name)} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


class _Tokenizer:
    """Lexer for the structural-Verilog subset."""

    _TOKEN_RE = re.compile(
        r"""
        (?P<escaped>\\[^\s]+\s)      # escaped identifier (trailing ws required)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
      | (?P<punct>[().,;])
        """,
        re.VERBOSE,
    )
    _COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

    def __init__(self, text: str) -> None:
        text = self._COMMENT_RE.sub(" ", text)
        self.tokens: List[str] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            match = self._TOKEN_RE.match(text, pos)
            if match is None:
                raise NetlistError(f"verilog parse error near {text[pos:pos + 30]!r}")
            if match.lastgroup == "escaped":
                self.tokens.append(match.group().strip()[1:])
            else:
                self.tokens.append(match.group())
            pos = match.end()
        self.index = 0

    def peek(self) -> str:
        if self.index >= len(self.tokens):
            raise NetlistError("unexpected end of verilog input")
        return self.tokens[self.index]

    def next(self) -> str:
        token = self.peek()
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise NetlistError(f"expected {token!r}, got {got!r}")

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)


def parse_verilog(text: str, library: CellLibrary | None = None) -> Netlist:
    """Parse a structural Verilog module back into a :class:`Netlist`.

    The module must instantiate only cells known to *library*.  Clock inputs
    are recovered heuristically (inputs feeding only ``CK`` pins).
    """
    library = library if library is not None else DEFAULT_LIBRARY
    tok = _Tokenizer(text)
    tok.expect("module")
    name = tok.next()
    netlist = Netlist(name, library=library)
    tok.expect("(")
    port_order: List[str] = []
    while tok.peek() != ")":
        token = tok.next()
        if token != ",":
            port_order.append(token)
    tok.expect(")")
    tok.expect(";")

    declared_inputs: List[str] = []
    while not tok.exhausted and tok.peek() != "endmodule":
        keyword = tok.next()
        if keyword in ("input", "output", "wire"):
            names: List[str] = []
            while tok.peek() != ";":
                token = tok.next()
                if token != ",":
                    names.append(token)
            tok.expect(";")
            for net_name in names:
                if keyword == "input":
                    netlist.add_input(net_name)
                    declared_inputs.append(net_name)
                elif keyword == "output":
                    netlist.add_output(net_name)
                else:
                    netlist.add_net(net_name)
        else:
            type_name = keyword
            inst_name = tok.next()
            tok.expect("(")
            connections: Dict[str, str] = {}
            while tok.peek() != ")":
                token = tok.next()
                if token == ",":
                    continue
                if token != ".":
                    raise NetlistError(
                        f"only named port connections supported (cell {inst_name!r})"
                    )
                pin = tok.next()
                tok.expect("(")
                net_name = tok.next()
                tok.expect(")")
                connections[pin] = net_name
            tok.expect(")")
            tok.expect(";")
            netlist.add_cell(inst_name, type_name, connections)
    if not tok.exhausted:
        tok.expect("endmodule")

    for net_name in declared_inputs:
        sinks = netlist.nets[net_name].sinks
        if sinks and all(ref.pin == "CK" for ref in sinks):
            netlist.clocks.append(net_name)
    return netlist
