"""Lowering kernels to predicated dataflow graphs.

Two modes, both producing one DFG iteration per *innermost* loop body
execution:

* ``flatten=False`` — only the innermost loop is lowered; enclosing loop
  indices and live-in scalars become external inputs (re-supplied per
  outer iteration). This is the mode used for functional cross-checks.
* ``flatten=True`` — the whole nest is flattened into a single loop, the
  paper's setup ("we simplify the DFG by flattening the nested-loop").
  Loop indices become an odometer of PHI/SELECT recurrences; statements
  between loop levels are predicated on first/last-inner-iteration
  conditions, which is partial predication in the sense of [12].

Control flow (``If``) always lowers to SELECT nodes; stores acquire a
predicate operand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg.graph import DFG
from repro.dfg.ops import BINARY_SYMBOLS, UNARY_SYMBOLS, Opcode
from repro.errors import FrontendError
from repro.frontend.ast import (
    Accumulate,
    Assign,
    Bin,
    Cmp,
    Const,
    Expr,
    For,
    If,
    Kernel,
    Ref,
    Stmt,
    Unary,
    Var,
)


@dataclass
class LoweredKernel:
    """The result of lowering: a DFG plus interpretation metadata.

    Attributes:
        kernel: The source kernel.
        dfg: One iteration of the (flattened or innermost) loop.
        meta: Node id -> attributes the interpreter needs (constant
            values, load/store array + index + predicate nodes, PHI
            initial values).
        externals: Names of external scalar inputs (outer indices and
            live-in scalars in non-flattened mode; invariants always).
        trip_count: Iterations of the lowered loop (product of the
            flattened levels' trip counts in flatten mode).
        loop_vars: The loop variables, outermost first, that the DFG
            iterates (flatten mode) or that are external (otherwise).
    """

    kernel: Kernel
    dfg: DFG
    meta: dict[int, dict]
    externals: list[str]
    trip_count: int
    loop_vars: list[str]


def lower_kernel(kernel: Kernel, flatten: bool = True,
                 memory_ordering: bool = False) -> LoweredKernel:
    """Lower ``kernel`` to a dataflow graph (see module docstring).

    ``memory_ordering`` adds explicit ordering edges from stores to
    later loads of the same array (within and across iterations), which
    serializes aliasing accesses — required for kernels like histogram
    whose loads must observe the previous iteration's stores when
    executed on the elastic machine model. It costs RecMII (the
    store->load chain becomes a recurrence), which is why it is opt-in:
    non-aliasing kernels keep their parallelism.
    """
    lowerer = _Lowerer(kernel, memory_ordering=memory_ordering)
    if flatten:
        return lowerer.lower_flattened()
    return lowerer.lower_innermost()


@dataclass
class _LoopLevel:
    """Bookkeeping for one flattened loop level."""

    loop: For
    phi: int = -1
    wrap: int = -1          # predicate node: index at its last value
    at_start: int = -1      # predicate node: index at its first value


class _Lowerer:
    """Stateful single-use lowering pass."""

    def __init__(self, kernel: Kernel, memory_ordering: bool = False):
        self.kernel = kernel
        self.memory_ordering = memory_ordering
        self.dfg = DFG(name=kernel.name)
        self.meta: dict[int, dict] = {}
        self.env: dict[str, int] = {}
        self.externals: list[str] = []
        self._const_cache: dict[float, int] = {}
        self._cse: dict[tuple, int] = {}
        self._load_cache: dict[tuple[str, int | None], int] = {}
        self._phi_backedges: list[tuple[str, int]] = []  # (var, phi node)
        self._last_store: dict[str, int] = {}
        self._first_load: dict[str, int] = {}
        self._load_has_order_edge: set[int] = set()

    # -- public entry points ----------------------------------------------

    def lower_innermost(self) -> LoweredKernel:
        inner = self.kernel.innermost_loop()
        outer_vars = self._loop_vars_above(inner)
        for var in outer_vars:
            self._bind_external(var)
        self._add_induction(inner)
        true_pred = None
        for stmt in inner.body:
            self._lower_stmt(stmt, true_pred)
        self._wire_backedges()
        self.dfg.validate()
        return LoweredKernel(
            kernel=self.kernel,
            dfg=self.dfg,
            meta=self.meta,
            externals=list(self.externals),
            trip_count=inner.trip_count,
            loop_vars=[inner.var],
        )

    def lower_flattened(self) -> LoweredKernel:
        levels = self._collect_levels(self.kernel.body)
        self._build_odometer(levels)
        self._lower_level(levels, depth=0, pred=None)
        self._wire_backedges()
        self.dfg.validate()
        trip = 1
        for level in levels:
            trip *= level.loop.trip_count
        return LoweredKernel(
            kernel=self.kernel,
            dfg=self.dfg,
            meta=self.meta,
            externals=list(self.externals),
            trip_count=trip,
            loop_vars=[level.loop.var for level in levels],
        )

    # -- loop structure -----------------------------------------------------

    def _collect_levels(self, loop: For) -> list[_LoopLevel]:
        levels = [_LoopLevel(loop)]
        current = loop
        while True:
            inner = [s for s in current.body if isinstance(s, For)]
            if not inner:
                return levels
            if len(inner) > 1:
                raise FrontendError(
                    f"kernel {self.kernel.name!r}: sibling loops are not "
                    "supported; split them into separate kernels"
                )
            current = inner[0]
            levels.append(_LoopLevel(current))

    def _loop_vars_above(self, inner: For) -> list[str]:
        names = []
        loop = self.kernel.body
        while loop is not inner:
            names.append(loop.var)
            nested = [s for s in loop.body if isinstance(s, For)]
            loop = nested[0]
        return names

    def _add_induction(self, loop: For) -> None:
        """Innermost-only mode: a plain PHI/ADD induction recurrence."""
        phi = self._node(Opcode.PHI, name=loop.var)
        self.meta[phi] = {"init": float(loop.start)}
        self.env[loop.var] = phi
        nxt = self._node(Opcode.ADD, name=f"{loop.var}_next")
        self.dfg.add_edge(phi, nxt, port=0)
        one = self._const(1.0)
        self.dfg.add_edge(one, nxt, port=1)
        self.dfg.add_edge(nxt, phi, dist=1, port=1)
        # Loop exit condition: computed, feeds nothing (the hardware's
        # iteration counter consumes it); mirrors what LLVM emits.
        stop = self._const(float(loop.stop))
        cmp = self._node(Opcode.CMP, name=f"{loop.var}_cond")
        self.meta[cmp] = {"op": "<"}
        self.dfg.add_edge(nxt, cmp, port=0)
        self.dfg.add_edge(stop, cmp, port=1)

    def _build_odometer(self, levels: list[_LoopLevel]) -> None:
        """Flattened index updates, innermost digit first.

        For each level: ``wrap = (j == stop-1)``; the index advances when
        every inner level wraps; it resets to start when it wraps itself
        while advancing.
        """
        for level in levels:
            phi = self._node(Opcode.PHI, name=level.loop.var)
            self.meta[phi] = {"init": float(level.loop.start)}
            level.phi = phi
            self.env[level.loop.var] = phi

        inner_all_wrap: int | None = None  # AND of wraps of inner levels
        for level in reversed(levels):
            loop = level.loop
            last = self._const(float(loop.stop - 1))
            wrap = self._cmp_node("==", level.phi, last, name=f"{loop.var}_wrap")
            level.wrap = wrap
            start_const = self._const(float(loop.start))
            level.at_start = self._cmp_node(
                "==", level.phi, start_const, name=f"{loop.var}_first"
            )

            plus = self._binop("+", level.phi, self._const(1.0),
                               name=f"{loop.var}_inc")
            wrapped = self._select(wrap, start_const, plus,
                                   name=f"{loop.var}_mod")
            if inner_all_wrap is None:
                nxt = wrapped
            else:
                held = self._select(inner_all_wrap, wrapped, level.phi,
                                    name=f"{loop.var}_next")
                nxt = held
            self.dfg.add_edge(nxt, level.phi, dist=1, port=1)

            if inner_all_wrap is None:
                inner_all_wrap = wrap
            else:
                inner_all_wrap = self._binop("&", wrap, inner_all_wrap,
                                             name=f"{loop.var}_adv")
        self._levels = levels

    def _lower_level(self, levels: list[_LoopLevel], depth: int,
                     pred: int | None) -> None:
        """Lower one level's body; non-innermost statements are predicated.

        Statements textually before the nested loop run when all inner
        levels sit at their first index; statements after it run when
        all inner levels wrap.
        """
        level = levels[depth]
        is_innermost = depth == len(levels) - 1
        if is_innermost:
            for stmt in level.loop.body:
                self._lower_stmt(stmt, pred)
            return

        first_inner = self._and_all(
            [lv.at_start for lv in levels[depth + 1:]], pred
        )
        wrap_inner = self._and_all(
            [lv.wrap for lv in levels[depth + 1:]], pred
        )
        seen_loop = False
        for stmt in level.loop.body:
            if isinstance(stmt, For):
                self._lower_level(levels, depth + 1, pred)
                seen_loop = True
            elif not seen_loop:
                self._lower_stmt(stmt, first_inner)
            else:
                self._lower_stmt(stmt, wrap_inner)

    def _and_all(self, preds: list[int], extra: int | None) -> int | None:
        acc = extra
        for p in preds:
            acc = p if acc is None else self._binop("&", acc, p)
        return acc

    # -- statements ---------------------------------------------------------

    def _lower_stmt(self, stmt: Stmt, pred: int | None) -> None:
        if isinstance(stmt, Accumulate):
            stmt = Assign(stmt.target,
                          Bin(stmt.op, Var(stmt.target.name), stmt.expr))
        if isinstance(stmt, Assign):
            self._lower_assign(stmt, pred)
        elif isinstance(stmt, If):
            self._lower_if(stmt, pred)
        elif isinstance(stmt, For):
            raise FrontendError("nested loop reached statement lowering")
        else:
            raise FrontendError(f"unknown statement {stmt!r}")

    def _lower_assign(self, stmt: Assign, pred: int | None) -> None:
        value = self._lower_expr(stmt.expr)
        if isinstance(stmt.target, Var):
            name = stmt.target.name
            if pred is not None:
                old = self._read_scalar(name)
                value = self._select(pred, value, old, name=f"{name}_sel")
            self.env[name] = value
        elif isinstance(stmt.target, Ref):
            self._lower_store(stmt.target, value, pred)
        else:
            raise FrontendError(f"bad assignment target {stmt.target!r}")

    def _lower_if(self, stmt: If, pred: int | None) -> None:
        cond = self._lower_expr(stmt.cond)
        then_pred = cond if pred is None else self._binop("&", pred, cond)
        not_cond = self._node(Opcode.NOT, name="else_pred")
        self.dfg.add_edge(cond, not_cond, port=0)
        else_pred = (not_cond if pred is None
                     else self._binop("&", pred, not_cond))
        for inner in stmt.then:
            self._lower_stmt(inner, then_pred)
        for inner in stmt.orelse:
            self._lower_stmt(inner, else_pred)

    def _lower_store(self, ref: Ref, value: int, pred: int | None) -> None:
        index = self._lower_expr(ref.index)
        store = self._node(Opcode.STORE, name=f"st_{ref.array}")
        self.dfg.add_edge(index, store, port=0)
        self.dfg.add_edge(value, store, port=1)
        info = {"array": ref.array, "index": index, "pred": None}
        if pred is not None:
            self.dfg.add_edge(pred, store, port=2)
            info["pred"] = pred
        self.meta[store] = info
        # A store may feed later loads of the same array in this
        # iteration; invalidate the load cache for it.
        stale = [k for k in self._load_cache if k[0] == ref.array]
        for key in stale:
            del self._load_cache[key]
        if self.memory_ordering:
            self._last_store[ref.array] = store

    # -- expressions ----------------------------------------------------------

    def _lower_expr(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            return self._const(float(expr.value))
        if isinstance(expr, Var):
            return self._read_scalar(expr.name)
        if isinstance(expr, Ref):
            return self._lower_load(expr)
        if isinstance(expr, Bin):
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            return self._binop(expr.op, lhs, rhs)
        if isinstance(expr, Cmp):
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            return self._cmp_node(expr.op, lhs, rhs)
        if isinstance(expr, Unary):
            return self._unary(expr)
        raise FrontendError(f"unknown expression {expr!r}")

    def _lower_load(self, ref: Ref) -> int:
        if ref.array not in self.kernel.arrays:
            raise FrontendError(
                f"kernel {self.kernel.name!r} reads undeclared array "
                f"{ref.array!r}"
            )
        if isinstance(ref.index, Const):
            key = (ref.array, None, float(ref.index.value))
            index = None
        else:
            index = self._lower_expr(ref.index)
            key = (ref.array, index)
        if key in self._load_cache:
            return self._load_cache[key]
        load = self._node(Opcode.LOAD, name=f"ld_{ref.array}")
        info: dict = {"array": ref.array, "index": None, "index_const": None}
        if index is None:
            info["index_const"] = float(ref.index.value)
        else:
            self.dfg.add_edge(index, load, port=0)
            info["index"] = index
        if self.memory_ordering:
            if ref.array in self._last_store:
                # Read-after-write within the iteration: the load waits
                # for the store's completion token.
                self.dfg.add_edge(self._last_store[ref.array], load,
                                  dist=0, port=1)
                self._load_has_order_edge.add(load)
            self._first_load.setdefault(ref.array, load)
        self.meta[load] = info
        self._load_cache[key] = load
        return load

    def _unary(self, expr: Unary) -> int:
        operand = self._lower_expr(expr.operand)
        if expr.op == "-":
            return self._binop("-", self._const(0.0), operand)
        opcode = UNARY_SYMBOLS[expr.op]
        key = (opcode, operand)
        if key in self._cse:
            return self._cse[key]
        node = self._node(opcode)
        self.dfg.add_edge(operand, node, port=0)
        self._cse[key] = node
        return node

    # -- node helpers -----------------------------------------------------------

    def _node(self, opcode: Opcode, name: str = "") -> int:
        return self.dfg.add_node(opcode, name)

    def _const(self, value: float) -> int:
        if value not in self._const_cache:
            node = self._node(Opcode.CONST, name=f"c{value:g}")
            self.meta[node] = {"value": value}
            self._const_cache[value] = node
        return self._const_cache[value]

    def _binop(self, op: str, lhs: int, rhs: int, name: str = "") -> int:
        opcode = BINARY_SYMBOLS[op]
        key = (opcode, lhs, rhs)
        if key in self._cse:
            return self._cse[key]
        node = self._node(opcode, name)
        self.dfg.add_edge(lhs, node, port=0)
        self.dfg.add_edge(rhs, node, port=1)
        self._cse[key] = node
        return node

    def _cmp_node(self, op: str, lhs: int, rhs: int, name: str = "") -> int:
        key = (Opcode.CMP, op, lhs, rhs)
        if key in self._cse:
            return self._cse[key]
        node = self._node(Opcode.CMP, name)
        self.meta[node] = {"op": op}
        self.dfg.add_edge(lhs, node, port=0)
        self.dfg.add_edge(rhs, node, port=1)
        self._cse[key] = node
        return node

    def _select(self, pred: int, if_true: int, if_false: int,
                name: str = "") -> int:
        key = (Opcode.SELECT, pred, if_true, if_false)
        if key in self._cse:
            return self._cse[key]
        node = self._node(Opcode.SELECT, name)
        self.dfg.add_edge(pred, node, port=0)
        self.dfg.add_edge(if_true, node, port=1)
        self.dfg.add_edge(if_false, node, port=2)
        self._cse[key] = node
        return node

    # -- scalars ------------------------------------------------------------------

    def _read_scalar(self, name: str) -> int:
        """Resolve a scalar read: bound value, live-in PHI, or external."""
        if name in self.env:
            return self.env[name]
        if self._is_written_later(name):
            phi = self._node(Opcode.PHI, name=name)
            self.meta[phi] = {"init_external": name}
            if name not in self.externals:
                self.externals.append(name)
            self.env[name] = phi
            self._phi_backedges.append((name, phi))
            return phi
        return self._bind_external(name)

    def _is_written_later(self, name: str) -> bool:
        """True if the kernel ever assigns ``name`` (loop-carried scalar)."""
        return _assigns_scalar(self.kernel.body, name)

    def _bind_external(self, name: str) -> int:
        node = self._node(Opcode.CONST, name=name)
        self.meta[node] = {"external": name}
        if name not in self.externals:
            self.externals.append(name)
        self.env[name] = node
        return node

    def _wire_backedges(self) -> None:
        """Connect each live-in scalar's final value back to its PHI."""
        for name, phi in self._phi_backedges:
            final = self.env[name]
            if final != phi:
                self.dfg.add_edge(final, phi, dist=1, port=1)
        if self.memory_ordering:
            # Write-before-next-iteration-read: each array's last store
            # orders the next iteration's first load, serializing
            # aliasing accesses across iterations.
            for array, store in self._last_store.items():
                load = self._first_load.get(array)
                if load is not None and load not in self._load_has_order_edge:
                    self.dfg.add_edge(store, load, dist=1, port=1)


def _assigns_scalar(loop: For, name: str) -> bool:
    def in_stmts(stmts) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (Assign, Accumulate)):
                if isinstance(stmt.target, Var) and stmt.target.name == name:
                    return True
            elif isinstance(stmt, If):
                if in_stmts(stmt.then) or in_stmts(stmt.orelse):
                    return True
            elif isinstance(stmt, For):
                if in_stmts(stmt.body):
                    return True
        return False

    return in_stmts(loop.body)
