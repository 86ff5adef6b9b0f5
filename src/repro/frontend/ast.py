"""The kernel language AST.

A kernel is a (possibly nested) counted loop whose body reads and writes
arrays and scalars. The language is deliberately small: it covers the
paper's benchmark kernels (dense/sparse linear algebra, filters,
histograms) while keeping lowering and interpretation easy to verify.

Example — a FIR filter::

    Kernel(
        name="fir",
        arrays={"x": 64 + 8, "h": 8, "y": 64},
        body=For("i", 0, 64, [
            Assign(Var("acc"), Const(0.0)),
            For("j", 0, 8, [
                Accumulate(Var("acc"), "+",
                           Bin("*", Ref("x", Bin("+", Var("i"), Var("j"))),
                                    Ref("h", Var("j")))),
            ]),
            Assign(Ref("y", Var("i")), Var("acc")),
        ]),
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.dfg.ops import BINARY_SYMBOLS, CMP_SYMBOLS, UNARY_SYMBOLS
from repro.errors import FrontendError

#: Binary arithmetic operators the language supports.
BIN_OPS = tuple(BINARY_SYMBOLS)
#: Comparison operators (produce 0/1 predicates).
CMP_OPS = tuple(CMP_SYMBOLS)
#: Unary operators.
UNARY_OPS = tuple(UNARY_SYMBOLS)


@dataclass(frozen=True)
class Const:
    """A literal constant."""

    value: float


@dataclass(frozen=True)
class Var:
    """A scalar variable (or loop index) read/write."""

    name: str


@dataclass(frozen=True)
class Ref:
    """An array element access ``array[index]`` (flattened 1-D indexing)."""

    array: str
    index: "Expr"


@dataclass(frozen=True)
class Bin:
    """A binary arithmetic expression."""

    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BIN_OPS:
            raise FrontendError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Cmp:
    """A comparison producing a 0/1 predicate."""

    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise FrontendError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class Unary:
    """A unary arithmetic expression."""

    op: str
    operand: "Expr"

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise FrontendError(f"unknown unary operator {self.op!r}")


Expr = Union[Const, Var, Ref, Bin, Cmp, Unary]


@dataclass(frozen=True)
class Assign:
    """``target = expr``; the target is a scalar or an array element."""

    target: Union[Var, Ref]
    expr: Expr


@dataclass(frozen=True)
class Accumulate:
    """``target op= expr`` — an explicit loop-carried reduction.

    Marking reductions explicitly (instead of reading/writing the same
    scalar) tells the lowerer to create the PHI + update recurrence with
    iteration distance 1, the pattern that bounds RecMII.
    """

    target: Var
    op: str
    expr: Expr

    def __post_init__(self) -> None:
        if self.op not in BIN_OPS:
            raise FrontendError(f"unknown accumulate operator {self.op!r}")


@dataclass(frozen=True)
class If:
    """Structured control flow; lowered to predication (SELECT nodes)."""

    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()

    def __init__(self, cond: Expr, then, orelse=()):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", tuple(then))
        object.__setattr__(self, "orelse", tuple(orelse))


@dataclass(frozen=True)
class For:
    """A counted loop ``for var in range(start, stop)``."""

    var: str
    start: int
    stop: int
    body: tuple["Stmt", ...]

    def __init__(self, var: str, start: int, stop: int, body):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "body", tuple(body))

    @property
    def trip_count(self) -> int:
        return max(0, self.stop - self.start)


Stmt = Union[Assign, Accumulate, If, For]


@dataclass(frozen=True)
class Kernel:
    """A named kernel: array declarations plus one outer loop.

    Attributes:
        name: Kernel name (used as the DFG name).
        arrays: Array name -> element count (word-sized elements).
        body: The outer loop.
    """

    name: str
    arrays: dict[str, int] = field(hash=False)
    body: For

    def footprint_bytes(self, word_bytes: int = 4) -> int:
        """Total scratchpad footprint of the declared arrays."""
        return sum(self.arrays.values()) * word_bytes

    def innermost_loop(self) -> For:
        """The innermost loop — the one that is software-pipelined."""
        loop = self.body
        while True:
            inner = [s for s in loop.body if isinstance(s, For)]
            if not inner:
                return loop
            if len(inner) > 1:
                raise FrontendError(
                    f"kernel {self.name!r} has sibling loops; lower them "
                    "as separate kernels"
                )
            loop = inner[0]
