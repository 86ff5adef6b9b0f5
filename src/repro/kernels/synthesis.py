"""Deterministic DFG synthesis to target graph statistics.

``synthesize_dfg`` builds a dataflow graph with an exact node count,
edge count and RecMII. The construction mirrors how real kernels are
shaped:

* one *critical* recurrence chain of ``rec_mii`` nodes closed by a
  distance-1 back edge (the II-determining loop-carried dependence);
* where the budget allows, a second, shorter recurrence (at most half
  the critical length — the blue cycle of Fig 1, which Algorithm 1
  labels *relax*);
* LOAD sources (placement-constrained to the SPM column) feeding a
  DAG of domain-flavoured compute nodes into STORE sinks;
* remaining edge budget spent on extra forward dependences.

All dist-0 edges point forward in construction order, so the only
cycles are the two designed recurrences and RecMII is exact by
construction (and re-verified through the analysis module before the
graph is returned).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.dfg.analysis import dfg_stats
from repro.dfg.graph import DFG
from repro.dfg.ops import Opcode
from repro.errors import DFGError
from repro.utils.rng import make_rng

#: Domain-flavoured opcode mixes for 2-input compute nodes.
_BINOP_MIX = {
    "embedded": [Opcode.MUL, Opcode.ADD, Opcode.SUB, Opcode.SHL, Opcode.SHR],
    "ml": [Opcode.MUL, Opcode.ADD, Opcode.MAX, Opcode.ADD, Opcode.MUL],
    "hpc": [Opcode.MUL, Opcode.ADD, Opcode.SUB, Opcode.DIV, Opcode.ADD],
    "gcn": [Opcode.MUL, Opcode.ADD, Opcode.MAX, Opcode.ADD, Opcode.CMP],
    "lu": [Opcode.MUL, Opcode.SUB, Opcode.DIV, Opcode.ADD, Opcode.MUL],
}
_UNARY_MIX = [Opcode.MOV, Opcode.ABS, Opcode.NOT]

#: Max extra in-edges accepted per role (beyond the skeleton's wiring).
_ROLE_CAPACITY = {
    "load": 2, "phi": 4, "store": 3, "compute": 3, "cycle": 3,
}


def synthesize_dfg(name: str, nodes: int, edges: int, rec_mii: int,
                   domain: str = "ml", seed: int | None = None) -> DFG:
    """Build a DFG with exactly the requested statistics.

    Raises :class:`DFGError` when the combination is unsatisfiable
    (edge budget below the connectivity minimum or above the arity
    ceiling).
    """
    if domain not in _BINOP_MIX:
        raise DFGError(f"unknown domain {domain!r}")
    if nodes < rec_mii + 2:
        raise DFGError(f"{name}: need at least RecMII + 2 nodes")
    base_seed = seed if seed is not None else _stable_seed(name, nodes)
    plan = _plan(nodes, edges, rec_mii)

    # The random wiring can paint itself into an arity corner; retry
    # with derived seeds (still fully deterministic for a given name).
    last_error: Exception | None = None
    for attempt in range(64):
        rng = make_rng((base_seed + attempt * 7919) & 0x7FFFFFFF)
        dfg = DFG(name=name)
        try:
            _Wiring(dfg, rng).build(plan, domain)
        except DFGError as exc:
            last_error = exc
            continue
        stats = dfg_stats(dfg)
        if (stats.nodes, stats.edges, stats.rec_mii) != (
            nodes, edges, rec_mii
        ):
            last_error = DFGError(
                f"{name}: synthesis produced {stats}, wanted "
                f"({nodes}, {edges}, {rec_mii})"
            )
            continue
        dfg.validate()
        return dfg
    raise DFGError(f"{name}: synthesis failed after 64 seeds: {last_error}")


def _stable_seed(name: str, nodes: int) -> int:
    # zlib.crc32 is stable across processes; the builtin hash() is
    # salted per interpreter run and would make kernels irreproducible.
    return (zlib.crc32(name.encode()) ^ (nodes * 2654435761)) & 0x7FFFFFFF


class _Plan:
    """Node-budget split for one synthesis run."""

    def __init__(self, loads: int, computes: int, stores: int,
                 cycle_a: int, cycle_b: int, edges: int):
        self.loads = loads
        self.computes = computes
        self.stores = stores
        self.cycle_a = cycle_a
        self.cycle_b = cycle_b
        self.edges = edges


def _plan(nodes: int, edges: int, rec_mii: int) -> _Plan:
    loads = max(1, min(6, nodes // 6))
    stores = 1 if nodes < 25 else 2
    cycle_b = max(2, rec_mii // 2) if rec_mii >= 4 else 0
    computes = nodes - rec_mii - cycle_b - loads - stores
    if computes < 1 and cycle_b:
        cycle_b = 0
        computes = nodes - rec_mii - loads - stores
    while computes < 1 and loads > 1:
        loads -= 1
        computes += 1
    if computes < 0:
        raise DFGError("node budget too small for the requested RecMII")
    # Minimum edges: both cycles' internal chains + back edges, one
    # in-edge per compute/store/phi-head, one out-edge fixups come out
    # of the extra budget.
    minimum = (
        rec_mii + cycle_b + computes + stores
        + 1 + (1 if cycle_b else 0)
    )
    if edges < minimum:
        raise DFGError(
            f"edge budget {edges} below connectivity minimum {minimum}"
        )
    return _Plan(loads, computes, stores, rec_mii, cycle_b, edges)


class _Wiring:
    """Single-use helper that lays nodes out and wires the edge budget."""

    def __init__(self, dfg: DFG, rng: np.random.Generator):
        self.dfg = dfg
        self.rng = rng
        self.order: list[int] = []       # construction (topological) order
        self.role: dict[int, str] = {}
        self.in_deg: dict[int, int] = {}
        self.edge_set: set[tuple[int, int]] = set()

    # -- helpers ----------------------------------------------------------

    def _new(self, role: str, opcode: Opcode, name: str = "") -> int:
        node = self.dfg.add_node(opcode, name)
        self.order.append(node)
        self.role[node] = role
        self.in_deg[node] = 0
        return node

    def _connect(self, src: int, dst: int, dist: int = 0) -> bool:
        if (src, dst) in self.edge_set and dist == 0:
            return False
        self.dfg.add_edge(src, dst, dist=dist, port=self.in_deg[dst])
        self.edge_set.add((src, dst))
        self.in_deg[dst] += 1
        return True

    def _capacity(self, node: int) -> int:
        cap = _ROLE_CAPACITY[self.role[node]]
        if self.role[node] == "phi":
            cap = 3  # one slot stays reserved for the back edge
        return cap - self.in_deg[node]

    def _pick(self, pool: list[int]) -> int:
        return pool[int(self.rng.integers(0, len(pool)))]

    # -- construction --------------------------------------------------------

    def build(self, plan: _Plan, domain: str) -> None:
        for i in range(plan.loads):
            self._new("load", Opcode.LOAD, f"ld{i}")
        front = plan.computes // 2
        computes_a = [
            self._new("compute", Opcode.ADD, f"c{i}") for i in range(front)
        ]
        cycle_a = self._make_cycle(plan.cycle_a, "a")
        cycle_b = self._make_cycle(plan.cycle_b, "b") if plan.cycle_b else []
        computes_b = [
            self._new("compute", Opcode.ADD, f"c{front + i}")
            for i in range(plan.computes - front)
        ]
        stores = [
            self._new("store", Opcode.STORE, f"st{i}")
            for i in range(plan.stores)
        ]

        # Skeleton in-edges: every compute, store and cycle head pulls
        # from an earlier node — preferring producers that do not yet
        # feed anything, which keeps dangling values to a minimum.
        for node in computes_a + computes_b + stores:
            earlier = self.order[: self.order.index(node)]
            feeders = [n for n in earlier if self.role[n] != "store"]
            outless = [
                n for n in feeders if not self.dfg.out_edges(n)
                and (n, node) not in self.edge_set
            ]
            self._connect(self._pick(outless or feeders), node)
        for head in ([cycle_a[0]] + ([cycle_b[0]] if cycle_b else [])):
            earlier = self.order[: self.order.index(head)]
            feeders = [n for n in earlier if self.role[n] != "store"]
            if feeders:
                self._connect(self._pick(feeders), head)

        # Out-connectivity: every non-store node must feed something.
        self._fix_out_connectivity()

        # Spend the remaining edge budget on forward dependences.
        budget = plan.edges - self.dfg.num_edges
        if budget < 0:
            raise DFGError("edge budget overrun during skeleton wiring")
        self._add_extras(budget)

        self._assign_opcodes(domain)

    def _make_cycle(self, length: int, tag: str) -> list[int]:
        head = self._new("phi", Opcode.PHI, f"phi_{tag}")
        body = [
            self._new("cycle", Opcode.ADD, f"{tag}{i}")
            for i in range(1, length)
        ]
        chain = [head] + body
        for u, v in zip(chain, chain[1:]):
            self._connect(u, v)
        self.dfg.add_edge(chain[-1], head, dist=1, port=3)
        self.edge_set.add((chain[-1], head))
        return chain

    def _fix_out_connectivity(self) -> None:
        position = {n: i for i, n in enumerate(self.order)}
        has_out = {n: False for n in self.order}
        for edge in self.dfg.edges():
            has_out[edge.src] = True
        for node in self.order:
            if has_out[node] or self.role[node] == "store":
                continue
            targets = [
                t for t in self.order
                if position[t] > position[node] and self._capacity(t) > 0
                and (node, t) not in self.edge_set
            ]
            if not targets:
                raise DFGError("no arity left to connect a dangling node")
            # Prefer stores and phis: dangling values flow to sinks.
            sinks = [t for t in targets if self.role[t] in ("store", "phi")]
            self._connect(node, self._pick(sinks or targets))

    def _add_extras(self, budget: int) -> None:
        position = {n: i for i, n in enumerate(self.order)}
        attempts = 0
        while budget > 0:
            attempts += 1
            if attempts > 5000:
                raise DFGError("could not place the remaining edge budget")
            dst_pool = [n for n in self.order if self._capacity(n) > 0
                        and position[n] > 0]
            if not dst_pool:
                raise DFGError("no arity left for extra edges")
            dst = self._pick(dst_pool)
            src_pool = [
                n for n in self.order
                if position[n] < position[dst] and self.role[n] != "store"
                and (n, dst) not in self.edge_set
            ]
            if not src_pool:
                continue
            self._connect(self._pick(src_pool), dst)
            budget -= 1

    def _assign_opcodes(self, domain: str) -> None:
        """Rewrite placeholder opcodes to match final in-degrees."""
        binops = _BINOP_MIX[domain]
        replacements: dict[int, Opcode] = {}
        for node in self.order:
            role = self.role[node]
            if role in ("load", "phi", "store"):
                continue
            degree = self.in_deg[node]
            if degree <= 1:
                choice = _UNARY_MIX[int(self.rng.integers(0, len(_UNARY_MIX)))]
            elif degree == 2:
                choice = binops[int(self.rng.integers(0, len(binops)))]
            else:
                choice = Opcode.SELECT
            replacements[node] = choice
        for node_id, opcode in replacements.items():
            self.dfg.set_opcode(node_id, opcode)
