"""Boolean expression AST for RTL description.

Circuits in :mod:`repro.circuits` are written against this tiny RTL algebra
(signals, constants, and/or/xor/not/mux) and then *synthesized* onto the
standard-cell library by :mod:`repro.synth.synthesis` — our in-repo stand-in
for the paper's Synopsys Design Compiler flow.

Expressions are immutable.  Constructors perform light constant folding and
operator flattening so that generated netlists stay close to what a real
synthesis tool would emit.

Example
-------
>>> a, b, c = Sig("a"), Sig("b"), Sig("c")
>>> expr = (a & b) | ~c
>>> sorted(expr.signals())
['a', 'b', 'c']
"""

from __future__ import annotations

from typing import Set, Tuple

__all__ = ["Expr", "Const", "Sig", "Not", "And", "Or", "Xor", "Mux", "ZERO", "ONE"]


class Expr:
    """Base class for boolean expressions (single-bit)."""

    __slots__ = ()

    def __and__(self, other: "Expr") -> "Expr":
        return And.of(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or.of(self, other)

    def __xor__(self, other: "Expr") -> "Expr":
        return Xor.of(self, other)

    def __invert__(self) -> "Expr":
        return Not.of(self)

    def signals(self) -> Set[str]:
        """Names of every :class:`Sig` appearing in the expression."""
        found: Set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Sig):
                found.add(node.name)
            else:
                stack.extend(node.children())
        return found

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def depth(self) -> int:
        """Height of the expression tree (constants and signals are 0)."""
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(child.depth() for child in kids)


class Const(Expr):
    """A constant 0 or 1."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value})"


#: Shared constant instances (identity comparisons are safe on these).
ZERO = Const(0)
ONE = Const(1)


class Sig(Expr):
    """Reference to a named single-bit signal (port, wire or register)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Sig({self.name!r})"


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    @staticmethod
    def of(operand: Expr) -> Expr:
        if isinstance(operand, Const):
            return ONE if operand.value == 0 else ZERO
        if isinstance(operand, Not):
            return operand.operand
        return Not(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class _NaryExpr(Expr):
    """Common machinery for flattened, constant-folded n-ary operators."""

    __slots__ = ("args",)

    #: Value that annihilates the operator (0 for AND, 1 for OR, None for XOR).
    _ANNIHILATOR: int | None = None
    #: Value that is the identity of the operator.
    _IDENTITY: int = 0

    def __init__(self, args: Tuple[Expr, ...]) -> None:
        self.args = args

    @classmethod
    def of(cls, *operands: Expr) -> Expr:
        flat: list[Expr] = []
        for op in operands:
            if isinstance(op, cls):
                flat.extend(op.args)
            else:
                flat.append(op)
        return cls._fold(flat)

    @classmethod
    def _fold(cls, flat: list[Expr]) -> Expr:
        raise NotImplementedError

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"


class And(_NaryExpr):
    """N-ary conjunction."""

    __slots__ = ()

    @classmethod
    def _fold(cls, flat: list[Expr]) -> Expr:
        kept: list[Expr] = []
        for op in flat:
            if isinstance(op, Const):
                if op.value == 0:
                    return ZERO
                continue  # drop identity 1
            kept.append(op)
        if not kept:
            return ONE
        if len(kept) == 1:
            return kept[0]
        return And(tuple(kept))


class Or(_NaryExpr):
    """N-ary disjunction."""

    __slots__ = ()

    @classmethod
    def _fold(cls, flat: list[Expr]) -> Expr:
        kept: list[Expr] = []
        for op in flat:
            if isinstance(op, Const):
                if op.value == 1:
                    return ONE
                continue
            kept.append(op)
        if not kept:
            return ZERO
        if len(kept) == 1:
            return kept[0]
        return Or(tuple(kept))


class Xor(_NaryExpr):
    """N-ary exclusive-or (constants folded into a possible top-level Not)."""

    __slots__ = ()

    @classmethod
    def _fold(cls, flat: list[Expr]) -> Expr:
        invert = 0
        kept: list[Expr] = []
        for op in flat:
            if isinstance(op, Const):
                invert ^= op.value
            else:
                kept.append(op)
        if not kept:
            return ONE if invert else ZERO
        result: Expr = kept[0] if len(kept) == 1 else Xor(tuple(kept))
        return Not.of(result) if invert else result


class Mux(Expr):
    """``Mux(sel, if_one, if_zero)`` — *if_one* when *sel* is 1."""

    __slots__ = ("sel", "if_one", "if_zero")

    def __init__(self, sel: Expr, if_one: Expr, if_zero: Expr) -> None:
        self.sel = sel
        self.if_one = if_one
        self.if_zero = if_zero

    @staticmethod
    def of(sel: Expr, if_one: Expr, if_zero: Expr) -> Expr:
        if isinstance(sel, Const):
            return if_one if sel.value else if_zero
        if isinstance(if_one, Const) and isinstance(if_zero, Const):
            if if_one.value == if_zero.value:
                return if_one
            return sel if if_one.value == 1 else Not.of(sel)
        if if_one is if_zero:
            return if_one
        if isinstance(if_one, Const):
            # sel ? 1 : b == sel | b ;  sel ? 0 : b == ~sel & b
            return Or.of(sel, if_zero) if if_one.value else And.of(Not.of(sel), if_zero)
        if isinstance(if_zero, Const):
            # sel ? a : 1 == ~sel | a ;  sel ? a : 0 == sel & a
            return Or.of(Not.of(sel), if_one) if if_zero.value else And.of(sel, if_one)
        return Mux(sel, if_one, if_zero)

    def children(self) -> Tuple[Expr, ...]:
        return (self.sel, self.if_one, self.if_zero)

    def __repr__(self) -> str:
        return f"Mux({self.sel!r}, {self.if_one!r}, {self.if_zero!r})"
