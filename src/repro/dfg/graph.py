"""The dataflow graph container.

Nodes are single-cycle operations; directed edges are data dependences.
An edge with ``dist == 0`` is an intra-iteration dependence; ``dist >= 1``
is a loop-carried dependence spanning that many iterations. Parallel
edges between the same node pair are allowed (``x * x``).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

import networkx as nx

from repro.dfg.ops import Opcode, arity, is_memory_op
from repro.errors import DFGError

T = TypeVar("T")

#: The :meth:`DFG.memo` key of :meth:`DFG.structure_json`.
STRUCTURE_JSON = "structure_json"


@dataclass(frozen=True)
class DFGNode:
    """One operation in the dataflow graph."""

    id: int
    opcode: Opcode
    name: str = ""

    @property
    def label(self) -> str:
        return self.name or f"n{self.id}"

    def __repr__(self) -> str:
        return f"DFGNode({self.label}:{self.opcode.name.lower()})"


@dataclass(frozen=True)
class DFGEdge:
    """A data dependence from ``src`` to ``dst``.

    Attributes:
        dist: Iteration distance (0 = same iteration).
        port: Operand slot on the consumer, for documentation/debugging.
    """

    src: int
    dst: int
    dist: int = 0
    port: int = 0

    def __post_init__(self) -> None:
        if self.dist < 0:
            raise DFGError(f"negative iteration distance on edge {self}")

    def __repr__(self) -> str:
        tag = f" dist={self.dist}" if self.dist else ""
        return f"DFGEdge({self.src}->{self.dst}{tag})"


@dataclass
class DFG:
    """A mutable dataflow graph.

    Build one with :class:`~repro.dfg.builder.DFGBuilder` or the
    ``add_node``/``add_edge`` methods, then call :meth:`validate` before
    handing it to a mapper. Change a built graph only through its
    methods: they forget what :meth:`memo` kept about the old content.
    """

    name: str = "dfg"
    _nodes: dict[int, DFGNode] = field(default_factory=dict)
    _edges: list[DFGEdge] = field(default_factory=list)
    _out: dict[int, list[DFGEdge]] = field(default_factory=dict)
    _in: dict[int, list[DFGEdge]] = field(default_factory=dict)
    _next_id: int = 0
    #: ``key -> (name, value)`` kept by :meth:`memo`, shared with the
    #: graph's same-name copies; a mutation gives the graph a new, empty
    #: one. Plain values only: graphs are pickled into pool work.
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    # -- construction -----------------------------------------------------

    def add_node(self, opcode: Opcode, name: str = "") -> int:
        """Add an operation and return its node id."""
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = DFGNode(node_id, opcode, name)
        self._out[node_id] = []
        self._in[node_id] = []
        self._memo = {}
        return node_id

    def add_edge(self, src: int, dst: int, dist: int = 0, port: int = 0) -> DFGEdge:
        """Add a data dependence from ``src`` to ``dst``."""
        if src not in self._nodes:
            raise DFGError(f"edge source {src} is not a node")
        if dst not in self._nodes:
            raise DFGError(f"edge target {dst} is not a node")
        edge = DFGEdge(src, dst, dist, port)
        self._edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._memo = {}
        return edge

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every edge touching it."""
        if node_id not in self._nodes:
            raise DFGError(f"{node_id} is not a node")
        touching = set(self._out[node_id]) | set(self._in[node_id])
        self._edges = [e for e in self._edges if e not in touching]
        for edge in self._out.pop(node_id):
            self._in[edge.dst] = [e for e in self._in[edge.dst] if e not in touching]
        for edge in self._in.pop(node_id):
            self._out[edge.src] = [e for e in self._out[edge.src] if e not in touching]
        del self._nodes[node_id]
        self._memo = {}

    def set_opcode(self, node_id: int, opcode: Opcode) -> None:
        """Give node ``node_id`` another opcode (its id and name stay)."""
        old = self.node(node_id)
        self._nodes[node_id] = DFGNode(old.id, opcode, old.name)
        self._memo = {}

    # -- accessors --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> DFGNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DFGError(f"{node_id} is not a node") from None

    def nodes(self) -> list[DFGNode]:
        """All nodes, in id order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def edges(self) -> list[DFGEdge]:
        return list(self._edges)

    def out_edges(self, node_id: int) -> list[DFGEdge]:
        return list(self._out[node_id])

    def in_edges(self, node_id: int) -> list[DFGEdge]:
        return list(self._in[node_id])

    def successors(self, node_id: int) -> list[int]:
        return [e.dst for e in self._out[node_id]]

    def predecessors(self, node_id: int) -> list[int]:
        return [e.src for e in self._in[node_id]]

    def memory_nodes(self) -> list[int]:
        """Ids of LOAD/STORE nodes (placement-constrained to the SPM column)."""
        return [n.id for n in self.nodes() if is_memory_op(n.opcode)]

    # -- structure --------------------------------------------------------

    def copy(self, name: str | None = None) -> "DFG":
        """A deep, independent copy (nodes/edges are immutable values).

        A copy under the same name shares :meth:`memo` with this graph
        until either is changed, so what one computes the other reads; a
        renamed copy starts from a snapshot of it.
        """
        other = DFG(name=name if name is not None else self.name)
        other._nodes = dict(self._nodes)
        other._edges = list(self._edges)
        other._out = {k: list(v) for k, v in self._out.items()}
        other._in = {k: list(v) for k, v in self._in.items()}
        other._next_id = self._next_id
        other._memo = (self._memo if other.name == self.name
                       else dict(self._memo))
        return other

    def memo(self, key: str, compute: Callable[["DFG"], T]) -> T:
        """``compute(self)``, computed once per graph content and name.

        Every mutation forgets the kept values, same-name copies share
        them (:meth:`copy`), and a value kept under another ``name`` is
        computed again, so ``compute`` may read anything the graph
        holds. Keep immutable values: every sharer reads the same one.
        """
        kept = self._memo.get(key)
        if kept is not None and kept[0] == self.name:
            return kept[1]
        value = compute(self)
        self._memo[key] = (self.name, value)
        return value

    def structure_json(self) -> str:
        """The graph as far as a mapper can observe it, as canonical JSON
        (sorted keys, compact separators): its name, its nodes as ``[id,
        opcode name]`` and its edges as ``[src, dst, dist]``. Computed
        once per content and name; the mapping cache key splices it in,
        and a copy carries it over."""
        return self.memo(STRUCTURE_JSON, DFG._structure_json)

    def _structure_json(self) -> str:
        structure = {
            "name": self.name,
            "nodes": [[n.id, n.opcode.name] for n in self.nodes()],
            "edges": [[e.src, e.dst, e.dist] for e in self._edges],
        }
        return json.dumps(structure, sort_keys=True, separators=(",", ":"))

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export to a networkx multigraph (edge attr ``dist``)."""
        graph = nx.MultiDiGraph(name=self.name)
        for node in self.nodes():
            graph.add_node(node.id, opcode=node.opcode)
        for edge in self._edges:
            graph.add_edge(edge.src, edge.dst, dist=edge.dist)
        return graph

    def validate(self) -> None:
        """Check structural invariants; raise :class:`DFGError` on failure.

        Invariants: arity limits respected, no dist-0 cycles (an
        intra-iteration dependence cycle is not executable), graph is
        non-empty. A graph that passed is not checked again until it is
        mutated or renamed.
        """
        self.memo("validate", DFG._check)

    def _check(self) -> bool:
        if not self._nodes:
            raise DFGError(f"DFG {self.name!r} has no nodes")
        for node in self.nodes():
            n_in = len(self._in[node.id])
            if n_in > arity(node.opcode):
                raise DFGError(
                    f"node {node.label} ({node.opcode.name}) has {n_in} inputs, "
                    f"max is {arity(node.opcode)}"
                )
        forward = nx.DiGraph()
        forward.add_nodes_from(self._nodes)
        forward.add_edges_from(
            (e.src, e.dst) for e in self._edges if e.dist == 0
        )
        if not nx.is_directed_acyclic_graph(forward):
            cycle = nx.find_cycle(forward)
            raise DFGError(
                f"DFG {self.name!r} has an intra-iteration dependence cycle: {cycle}"
            )
        return True

    def __repr__(self) -> str:
        return f"DFG({self.name!r}, {self.num_nodes} nodes, {self.num_edges} edges)"
