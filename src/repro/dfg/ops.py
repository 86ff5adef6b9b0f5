"""Operation codes executed by CGRA functional units, and what they
compute.

Every opcode executes in one cycle on the tile's own clock (the ICED
prototype targets single-cycle FUs; section IV-A). ``LOAD``/``STORE``
access the scratchpad and may only be placed on SPM-connected tiles.
:func:`evaluate` is the one definition of every compute opcode's value;
all four executor tiers (AST interpreter, DFG interpreter, cosim and the
bitstream machine) call it.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable, Sequence

from repro.errors import DFGError


class Opcode(enum.Enum):
    """The instruction set a tile's functional units implement."""

    # arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    SQRT = "sqrt"
    MAC = "mac"
    # bitwise / shifts
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # comparison and predication (control flow converted to data flow)
    CMP = "cmp"
    SELECT = "select"
    PHI = "phi"
    # data movement
    CONST = "const"
    MOV = "mov"
    # scratchpad access
    LOAD = "load"
    STORE = "store"

    def __repr__(self) -> str:
        return f"Opcode.{self.name}"


MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE})

COMPUTE_OPS = frozenset(op for op in Opcode if op not in MEMORY_OPS)

#: Opcodes whose result does not depend on input order; used by unrolling
#: to decide whether an accumulation chain may be re-associated.
ASSOCIATIVE_OPS = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR, Opcode.XOR}
)

#: Maximum number of data operands per opcode (SELECT takes predicate +
#: two values). Extra inputs are rejected by DFG validation.
ARITY: dict[Opcode, int] = {
    Opcode.NOT: 1,
    Opcode.ABS: 1,
    Opcode.SQRT: 1,
    Opcode.MOV: 1,
    Opcode.CONST: 0,
    Opcode.LOAD: 2,
    Opcode.STORE: 3,
    Opcode.SELECT: 3,
    Opcode.MAC: 3,
    Opcode.PHI: 4,
}
DEFAULT_ARITY = 2


def arity(op: Opcode) -> int:
    """Maximum number of incoming data edges allowed for ``op``."""
    return ARITY.get(op, DEFAULT_ARITY)


def is_memory_op(op: Opcode) -> bool:
    """True for opcodes that must sit on an SPM-connected tile."""
    return op in MEMORY_OPS


# -- semantics -----------------------------------------------------------------

#: Kernel-language spelling of each binary operator.
BINARY_SYMBOLS: dict[str, Opcode] = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.REM,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
}

#: Kernel-language spelling of each unary operator. ``-x`` has no opcode
#: of its own: it is ``SUB(0.0, x)``, which is what lowering emits.
UNARY_SYMBOLS: dict[str, Opcode] = {
    "-": Opcode.SUB,
    "abs": Opcode.ABS,
    "sqrt": Opcode.SQRT,
    "not": Opcode.NOT,
}

#: Kernel-language spelling of each ``CMP`` comparison, with its test.
CMP_SYMBOLS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _shl(x: int, n: int) -> int:
    # Every finite float64 is below 2**1024, so a non-zero x shifted
    # this far has left the range: refuse before building n bits.
    if x and n >= 1024:
        raise OverflowError("shift result beyond float64")
    return x << n


def _integer(rule: Callable[[int, int], int]) -> Callable[..., float]:
    """An integer op: truncate both operands with ``int()``, compute on
    unbounded ints, and return 0.0 wherever the result is undefined."""
    def apply(a: float, b: float) -> float:
        try:
            return float(rule(int(a), int(b)))
        except (ValueError, OverflowError, ZeroDivisionError):
            # int(nan) / negative shift count, int(inf) / a result
            # beyond float64, a divisor that truncates to 0.
            return 0.0
    return apply


_RULES: dict[Opcode, Callable[..., float]] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: lambda a, b: a / b if b else 0.0,
    Opcode.REM: _integer(operator.mod),
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.MAC: lambda a, b, c: a * b + c,
    Opcode.AND: _integer(operator.and_),
    Opcode.OR: _integer(operator.or_),
    Opcode.XOR: _integer(operator.xor),
    Opcode.SHL: _integer(_shl),
    Opcode.SHR: _integer(operator.rshift),
    Opcode.ABS: abs,
    Opcode.SQRT: lambda a: math.sqrt(a) if a >= 0 else 0.0,
    Opcode.NOT: lambda a: 0.0 if a else 1.0,
    Opcode.MOV: lambda a: a,
    Opcode.SELECT: lambda pred, a, b: a if pred else b,
}


def evaluate(op: Opcode, args: Sequence[float],
             cmp_op: str | None = None) -> float:
    """The value a compute opcode produces from its operands.

    ``args`` are the operands in port order; ``cmp_op`` is a
    :data:`CMP_SYMBOLS` key and is read only by ``CMP``. Values are
    float64. The rules:

    * ADD, SUB, MUL, MIN, MAX, ABS and MAC (``a * b + c``) are IEEE
      float arithmetic, as Python computes it.
    * AND, OR, XOR, SHL, SHR and REM truncate their operands with
      ``int()`` and compute on unbounded integers. REM follows Python's
      floor rule (``-7 % 2 == 1``), and ``SHR(-8, 70)`` is -1.0.
    * CMP and NOT return 1.0 or 0.0; SELECT picks ``args[1]`` when its
      predicate ``args[0]`` is non-zero, else ``args[2]``; MOV copies.

    **An undefined result is 0.0.** That covers DIV by zero, REM by a
    divisor that truncates to 0 (such as 0.5), SQRT of a negative or
    NaN, an integer op on a non-finite operand, a negative shift count,
    and an integer result beyond the float64 range (a large SHL count
    returns without building the integer). There is no fixed word
    width.

    ``LOAD``, ``STORE``, ``PHI`` and ``CONST`` read memory or executor
    state, so each executor handles them itself; passing one here, or
    the wrong number of operands, raises :class:`DFGError`.
    """
    rule = _RULES.get(op)
    if rule is None and op is not Opcode.CMP:
        raise DFGError(f"{op.name} is not a compute opcode")
    if len(args) != arity(op):
        raise DFGError(
            f"{op.name} takes {arity(op)} operands, got {len(args)}"
        )
    if rule is not None:
        return rule(*args)
    if cmp_op not in CMP_SYMBOLS:
        raise DFGError(f"unknown comparison {cmp_op!r}")
    return 1.0 if CMP_SYMBOLS[cmp_op](*args) else 0.0
