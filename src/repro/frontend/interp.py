"""Reference interpreters for kernels and their lowered DFGs.

``run_kernel_ast`` executes the AST directly — the semantic ground
truth. ``run_lowered_dfg`` executes the lowered dataflow graph one
iteration at a time, resolving PHIs and loop-carried edges the way the
hardware's predicated dataflow would. Tests run both on the same inputs
and require identical memory contents, proving the lowering (odometer
flattening, predication, CSE) preserves semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfg.analysis import topo_order
from repro.dfg.ops import BINARY_SYMBOLS, UNARY_SYMBOLS, Opcode, evaluate
from repro.errors import FrontendError
from repro.frontend.ast import (
    Accumulate,
    Assign,
    Bin,
    Cmp,
    Const,
    For,
    If,
    Kernel,
    Ref,
    Unary,
    Var,
)
from repro.frontend.lower import LoweredKernel

Memory = dict[str, list[float]]


def _check_arrays(kernel: Kernel, memory: Memory) -> Memory:
    mem = {}
    for name, size in kernel.arrays.items():
        if name not in memory:
            raise FrontendError(f"kernel {kernel.name!r} needs array {name!r}")
        data = list(memory[name])
        if len(data) < size:
            raise FrontendError(
                f"array {name!r} has {len(data)} elements, kernel declares {size}"
            )
        mem[name] = data
    return mem


# -- AST interpretation ------------------------------------------------------


def run_kernel_ast(kernel: Kernel, memory: Memory) -> Memory:
    """Execute ``kernel`` directly on (a copy of) ``memory``."""
    mem = _check_arrays(kernel, memory)
    scalars: dict[str, float] = {}
    _run_stmts([kernel.body], scalars, mem)
    return mem


def _run_stmts(stmts, scalars: dict[str, float], mem: Memory) -> None:
    for stmt in stmts:
        if isinstance(stmt, For):
            for i in range(stmt.start, stmt.stop):
                scalars[stmt.var] = float(i)
                _run_stmts(stmt.body, scalars, mem)
        elif isinstance(stmt, Assign):
            value = _eval(stmt.expr, scalars, mem)
            _write(stmt.target, value, scalars, mem)
        elif isinstance(stmt, Accumulate):
            current = scalars.get(stmt.target.name, 0.0)
            value = evaluate(BINARY_SYMBOLS[stmt.op],
                             (current, _eval(stmt.expr, scalars, mem)))
            scalars[stmt.target.name] = value
        elif isinstance(stmt, If):
            if _eval(stmt.cond, scalars, mem):
                _run_stmts(stmt.then, scalars, mem)
            else:
                _run_stmts(stmt.orelse, scalars, mem)
        else:
            raise FrontendError(f"unknown statement {stmt!r}")


def _write(target, value: float, scalars: dict[str, float], mem: Memory) -> None:
    if isinstance(target, Var):
        scalars[target.name] = value
    elif isinstance(target, Ref):
        index = int(_eval(target.index, scalars, mem))
        mem[target.array][index] = value
    else:
        raise FrontendError(f"bad assignment target {target!r}")


def _eval(expr, scalars: dict[str, float], mem: Memory) -> float:
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        if expr.name not in scalars:
            raise FrontendError(f"scalar {expr.name!r} read before any write")
        return scalars[expr.name]
    if isinstance(expr, Ref):
        return mem[expr.array][int(_eval(expr.index, scalars, mem))]
    if isinstance(expr, Bin):
        return evaluate(BINARY_SYMBOLS[expr.op],
                        (_eval(expr.lhs, scalars, mem),
                         _eval(expr.rhs, scalars, mem)))
    if isinstance(expr, Cmp):
        return evaluate(Opcode.CMP, (_eval(expr.lhs, scalars, mem),
                                     _eval(expr.rhs, scalars, mem)), expr.op)
    if isinstance(expr, Unary):
        value = _eval(expr.operand, scalars, mem)
        opcode = UNARY_SYMBOLS[expr.op]
        # -x is SUB(0.0, x), the node lowering emits for it.
        return evaluate(opcode, (0.0, value) if opcode is Opcode.SUB
                        else (value,))
    raise FrontendError(f"unknown expression {expr!r}")


# -- DFG interpretation --------------------------------------------------------


@dataclass
class DFGRun:
    """The outcome of executing a lowered DFG.

    Attributes:
        memory: Final array contents.
        scalars: Final value fed into each live-in scalar's PHI (i.e.
            the scalar's value after the last iteration).
        iterations: Iterations executed.
    """

    memory: Memory
    scalars: dict[str, float]
    iterations: int
    node_values: dict[int, float] = field(default_factory=dict)


def run_lowered_dfg(lowered: LoweredKernel, memory: Memory,
                    externals: dict[str, float] | None = None,
                    iterations: int | None = None) -> DFGRun:
    """Execute ``lowered.dfg`` for ``iterations`` loop iterations.

    ``externals`` supplies outer-loop indices and live-in scalar initial
    values in non-flattened mode; flattened kernels usually need none.
    """
    externals = dict(externals or {})
    iterations = lowered.trip_count if iterations is None else iterations
    mem = _check_arrays(lowered.kernel, memory)
    dfg, meta = lowered.dfg, lowered.meta

    order = topo_order(dfg)
    back_source: dict[int, tuple[int, int]] = {}
    for node_id in dfg.node_ids():
        carried = [e for e in dfg.in_edges(node_id) if e.dist >= 1]
        if not carried:
            continue
        opcode = dfg.node(node_id).opcode
        if opcode is Opcode.LOAD:
            continue  # memory-ordering token: no value to resolve
        if opcode is not Opcode.PHI:
            raise FrontendError(
                f"loop-carried edge into non-PHI node {node_id}"
            )
        if len(carried) > 1:
            raise FrontendError(f"PHI {node_id} has multiple back edges")
        back_source[node_id] = (carried[0].src, carried[0].dist)

    max_dist = max((e.dist for e in dfg.edges()), default=1)
    history: list[dict[int, float]] = []
    values: dict[int, float] = {}
    for k in range(iterations):
        values = {}
        for node_id in order:
            values[node_id] = _eval_node(
                dfg, meta, node_id, k, values, history, back_source,
                externals, mem,
            )
        history.append(values)
        if len(history) > max(max_dist, 1):
            history.pop(0)

    scalars = {}
    for node_id, (src, _dist) in back_source.items():
        name = dfg.node(node_id).name or f"phi{node_id}"
        scalars[name] = values.get(src, 0.0) if iterations else 0.0
    return DFGRun(memory=mem, scalars=scalars, iterations=iterations,
                  node_values=values)


def _eval_node(dfg, meta, node_id, k, values, history, back_source,
               externals, mem) -> float:
    node = dfg.node(node_id)
    info = meta.get(node_id, {})
    op = node.opcode

    if op is Opcode.CONST:
        if "external" in info:
            if info["external"] not in externals:
                raise FrontendError(
                    f"external input {info['external']!r} not supplied"
                )
            return float(externals[info["external"]])
        return float(info.get("value", 0.0))

    if op is Opcode.PHI:
        if k == 0:
            if "init_external" in info:
                return float(externals.get(info["init_external"], 0.0))
            return float(info.get("init", 0.0))
        src, dist = back_source[node_id]
        if k - dist < 0:
            return float(info.get("init", 0.0))
        return history[-dist][src]

    inputs = sorted(
        (e for e in dfg.in_edges(node_id) if e.dist == 0),
        key=lambda e: e.port,
    )
    args = [values[e.src] for e in inputs]

    if op is Opcode.LOAD:
        index = (int(args[0]) if info.get("index") is not None
                 else int(info["index_const"]))
        return mem[info["array"]][index]
    if op is Opcode.STORE:
        index, value = int(args[0]), args[1]
        pred = args[2] if len(args) > 2 else 1.0
        if pred:
            mem[info["array"]][index] = value
        return value
    return evaluate(op, args, info.get("op"))
