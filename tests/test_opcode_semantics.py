"""One opcode semantics: every executor tier agrees on edge operands.

``repro.dfg.ops.evaluate`` defines what each compute opcode returns.
The AST interpreter, the DFG interpreter, co-simulation of a mapping and
the bitstream machine all call it, so a one-statement kernel per
operator must leave bit-identical output in all four tiers, on operands
chosen where the rules have corners: signed zeros, fractions that
truncate to 0, shift counts around the word sizes, integers past 2**53
and magnitudes near the float64 limit. The direct rows pin each case
whose result is undefined (it is 0.0) and the opcodes the kernel
language cannot spell (MAC, MOV).
"""

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.compile import MappingCache, compile_dfg
from repro.dfg.ops import (
    BINARY_SYMBOLS,
    CMP_SYMBOLS,
    UNARY_SYMBOLS,
    Opcode,
    evaluate,
)
from repro.errors import DFGError
from repro.frontend import lower_kernel, run_kernel_ast, run_lowered_dfg
from repro.frontend.ast import Assign, Bin, Cmp, For, If, Kernel, Ref, Unary, Var
from repro.machine import run_bitstream
from repro.mapper.bitstream import bitstream_for_lowered
from repro.sim.cosim import cosimulate

ITERATIONS = 4

EDGE_VALUES = (
    0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -7.0, 7.0, -8.0,
    31.0, 32.0, 63.0, 64.0, 70.0, 100.0, 2000.0, 1e18,
    2.0 ** 31, 2.0 ** 53, 1e300, -1e300,
    float("inf"), float("-inf"), float("nan"),
)

operands = st.lists(st.sampled_from(EDGE_VALUES),
                    min_size=ITERATIONS, max_size=ITERATIONS)


def _body(kind: str, symbol: str) -> list:
    i = Var("i")
    x, z, y = Ref("x", i), Ref("z", i), Ref("y", i)
    if kind == "binary":
        return [Assign(y, Bin(symbol, x, z))]
    if kind == "unary":
        return [Assign(y, Unary(symbol, x))]
    # A comparison picks y through If, which lowers to a SELECT.
    return [
        Assign(Var("t"), z),
        If(Cmp(symbol, x, z), [Assign(Var("t"), x)]),
        Assign(y, Var("t")),
    ]


CASES = ([("binary", s) for s in BINARY_SYMBOLS]
         + [("cmp", s) for s in CMP_SYMBOLS]
         + [("unary", s) for s in UNARY_SYMBOLS])


@lru_cache(maxsize=None)
def _compiled(kind: str, symbol: str):
    """The kernel, its lowering, its 4x4 mapping and its bitstream."""
    kernel = Kernel(
        name=f"op{CASES.index((kind, symbol))}",
        arrays={"x": ITERATIONS, "z": ITERATIONS, "y": ITERATIONS},
        body=For("i", 0, ITERATIONS, _body(kind, symbol)),
    )
    lowered = lower_kernel(kernel, flatten=True)
    mapping = compile_dfg(lowered.dfg, CGRA.build(4, 4), "baseline",
                          cache=MappingCache()).mapping
    return kernel, lowered, mapping, bitstream_for_lowered(mapping, lowered)


def _hex(values) -> list[str]:
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("kind,symbol", CASES,
                         ids=[f"{k}[{s}]" for k, s in CASES])
@settings(max_examples=12, deadline=None)
@given(x=operands, z=operands)
def test_four_tiers_agree_bit_for_bit(kind, symbol, x, z):
    kernel, lowered, mapping, bitstream = _compiled(kind, symbol)
    memory = {"x": x, "z": z, "y": [0.0] * ITERATIONS}
    tiers = {
        "ast": run_kernel_ast(kernel, memory)["y"],
        "dfg": run_lowered_dfg(lowered, memory).memory["y"],
        "cosim": cosimulate(lowered, mapping, memory).memory["y"],
        "machine": run_bitstream(bitstream, memory,
                                 ITERATIONS).memory["y"],
    }
    reference = _hex(tiers.pop("ast"))
    for tier, values in tiers.items():
        assert _hex(values) == reference, (tier, x, z)


INF, NAN = float("inf"), float("nan")
MAX = sys.float_info.max

#: (opcode, operands, expected) for each undefined case, the integer
#: rules they sit next to, and the opcodes with no kernel spelling.
ROWS = [
    # DIV by zero
    (Opcode.DIV, (1.0, 0.0), 0.0),
    (Opcode.DIV, (-1.0, -0.0), 0.0),
    (Opcode.DIV, (0.0, 0.0), 0.0),
    # REM by a divisor that truncates to 0
    (Opcode.REM, (7.0, 0.0), 0.0),
    (Opcode.REM, (7.0, 0.5), 0.0),
    (Opcode.REM, (7.0, -0.5), 0.0),
    # an integer op on a non-finite operand
    (Opcode.AND, (INF, 1.0), 0.0),
    (Opcode.OR, (1.0, NAN), 0.0),
    (Opcode.XOR, (-INF, 1.0), 0.0),
    (Opcode.REM, (INF, 3.0), 0.0),
    (Opcode.SHL, (NAN, 1.0), 0.0),
    (Opcode.SHR, (1.0, INF), 0.0),
    # a negative shift count
    (Opcode.SHL, (1.0, -1.0), 0.0),
    (Opcode.SHR, (8.0, -1.0), 0.0),
    # an integer result beyond the float64 range
    (Opcode.SHL, (1e300, 63.0), 0.0),
    (Opcode.SHL, (1.0, 1024.0), 0.0),
    (Opcode.SHL, (1.0, 1e18), 0.0),
    (Opcode.OR, (MAX, float((2 ** 53 - 1) * 2 ** 918)), 0.0),
    # SQRT of a negative
    (Opcode.SQRT, (-1.0,), 0.0),
    # the integer rules that stay
    (Opcode.SHL, (1.0, 1023.0), 2.0 ** 1023),
    (Opcode.SHL, (0.0, 1e18), 0.0),
    (Opcode.SHL, (1.0, 40.0), 2.0 ** 40),
    (Opcode.SHR, (-8.0, 70.0), -1.0),
    (Opcode.REM, (-7.0, 2.0), 1.0),
    (Opcode.REM, (7.5, -2.0), -1.0),
    (Opcode.AND, (-1.5, 6.0), 6.0),
    (Opcode.XOR, (2.0 ** 53, 1.0), 2.0 ** 53),
    # no kernel spelling
    (Opcode.MAC, (2.0, 3.0, 4.0), 10.0),
    (Opcode.MAC, (1e300, 1e300, -INF), NAN),
    (Opcode.MOV, (-0.0,), -0.0),
]


@pytest.mark.parametrize("op,args,expected", ROWS,
                         ids=[f"{op.name}{args}" for op, args, _ in ROWS])
def test_evaluate_rows(op, args, expected):
    assert float.hex(evaluate(op, args)) == float.hex(expected)


def test_comparisons_return_one_or_zero():
    for symbol, test in CMP_SYMBOLS.items():
        for a, b in ((1.0, 2.0), (2.0, 1.0), (0.0, -0.0), (NAN, NAN)):
            assert evaluate(Opcode.CMP, (a, b), symbol) == float(test(a, b))


@pytest.mark.parametrize("op,args,cmp_op", [
    (Opcode.LOAD, (0.0,), None),
    (Opcode.PHI, (0.0,), None),
    (Opcode.CONST, (), None),
    (Opcode.ADD, (1.0,), None),
    (Opcode.SELECT, (1.0, 2.0), None),
    (Opcode.CMP, (1.0, 2.0), None),
    (Opcode.CMP, (1.0, 2.0), "<>"),
], ids=str)
def test_evaluate_refuses_what_it_does_not_define(op, args, cmp_op):
    with pytest.raises(DFGError):
        evaluate(op, args, cmp_op)
