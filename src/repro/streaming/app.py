"""The evaluated streaming applications: a 2-layer GCN, LU, and a
control-flow-heavy pipeline (``branchy_app``) for the scenario library.

Stage graphs follow the paper (Table I's island column and section V):

* **GCN inference** — 5 unique kernels, ``aggregate`` instantiated
  twice (one per layer): compress -> aggregate -> combine ->
  aggregate -> combrelu -> pooling, preferring 1+2+1+2+2+1 = 9
  islands on the 6x6 prototype. compress and aggregate scale with the
  input graph's non-zeros; combine/combrelu/pooling with its node
  count — so sparse graphs bottleneck on combine, dense ones on the
  aggregates, and the bottleneck shifts per input.
* **LU decomposition** — 6 kernels in 4 pipeline stages (the two
  solvers run in parallel, as do invert/determinant):
  init -> decompose -> (solver0 | solver1) -> (invert | determinant),
  preferring 1+1+(2+2)+(1+2) = 9 islands.

Iteration models read a whole
:class:`~repro.streaming.stage.FeatureBlock` (``block.get`` returns a
feature column) and are written as elementwise float64 arithmetic;
truncation to an iteration count happens once, in
``KernelStage.iterations_block``. Each model computes, per input,
exactly what the same formula computes on Python floats — the per-input
test oracle counts that way. Two need care: solver0's ``** 1.5`` runs
libm pow per element (numpy's vectorized pow rounds differently), and
cond_scan's max is ``np.maximum`` (an exact select).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.suite import load_kernel
from repro.streaming.stage import KernelStage


@dataclass
class StreamingApp:
    """A pipeline of stages; each stage is one or more parallel kernels."""

    name: str
    stages: list[list[KernelStage]] = field(default_factory=list)

    def all_kernels(self) -> list[KernelStage]:
        return [k for stage in self.stages for k in stage]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def preferred_islands(self) -> int:
        return sum(k.preferred_islands for k in self.all_kernels())

    def __repr__(self) -> str:
        shape = " -> ".join(
            "|".join(k.name for k in stage) for stage in self.stages
        )
        return f"StreamingApp({self.name}: {shape})"


def _stage(name: str, model, islands: int, unroll: int = 1,
           instance: str = "", alias: str = "") -> KernelStage:
    dfg = load_kernel(name, unroll)
    if alias:
        dfg = dfg.copy(name=alias)
    elif instance:
        dfg = dfg.copy(name=f"{name}.{instance}")
    return KernelStage(name=dfg.name, dfg=dfg, iteration_model=model,
                       preferred_islands=islands)


def gcn_app(unroll: int = 1) -> StreamingApp:
    """The 2-layer GCN inference pipeline over graph inputs."""
    def by_nnz(scale: float):
        return lambda block: scale * block.get("nnz")

    def by_nodes(scale: float):
        return lambda block: (scale * block.get("n_nodes")
                              * block.get("features"))

    return StreamingApp(name="gcn", stages=[
        [_stage("compress", by_nnz(1.0), 1, unroll)],
        [_stage("aggregate", by_nnz(2.0), 2, unroll, instance="l1")],
        [_stage("combine", by_nodes(2.0), 1, unroll)],
        [_stage("aggregate", by_nnz(2.0), 2, unroll, instance="l2")],
        [_stage("combrelu", by_nodes(1.5), 2, unroll)],
        [_stage("pooling", lambda block: block.get("n_nodes"), 1,
                unroll)],
    ])


def _solver0_batch(block):
    # libm pow per element: python's ``**`` and numpy's vectorized pow
    # disagree in the last ulp, and the per-input oracle's ``n ** 1.5``
    # must count the same iterations.
    n = block.get("n")
    return np.array([v ** 1.5 for v in n.tolist()], dtype=np.float64) * 0.9


def _predicated_batch(block):
    # If-converted nested conditional under *partial predication*: the
    # fabric executes both branch arms every outer iteration and
    # selects, so the per-iteration cost is the max of the arm trip
    # counts (heavy arm scales with the input's nesting depth, light
    # arm is constant). np.maximum is an exact float64 select.
    return block.get("outer") * np.maximum(block.get("depth") * 4.0, 6.0)


def branchy_app(unroll: int = 1) -> StreamingApp:
    """A control-flow-heavy pipeline stressing partial predication.

    Models the MLIR control-flow CGRA workload class (PAPERS.md):
    kernels whose per-input work is dominated by nested conditionals
    and irregular loops rather than dense array arithmetic. Inputs
    carry three features — ``outer`` (outer-loop trip count), ``taken``
    (fraction of iterations taking the heavy branch) and ``depth``
    (data-dependent inner nesting) — and the four kernels translate
    them differently:

    * ``cond_scan`` — if-converted conditional, both arms execute
      (partial predication): cost is the *max* of the arm trip counts;
    * ``branch_mix`` — branch-skipping form of the same conditional:
      only the taken fraction pays the heavy arm;
    * ``irregular`` — triangular inner loop (trip count grows with the
      iteration index), the classic irregular-loop iteration model;
    * ``merge`` — a regular tail stage.

    The split between ``cond_scan`` (predication pays for rarely-taken
    branches) and ``branch_mix`` (skipping pays for frequently-taken
    ones) is what shifts the bottleneck with ``taken`` — the
    control-flow analogue of the GCN's sparse/dense shift.
    """
    return StreamingApp(name="branchy", stages=[
        [_stage("fir", _predicated_batch, 1, unroll, alias="cond_scan")],
        [
            _stage("relu",
                   lambda x: x.get("outer") * (1.0 + 7.0 * x.get("taken")),
                   2, unroll, alias="branch_mix"),
            _stage("histogram",
                   lambda x: x.get("outer") * (x.get("depth") + 1.0)
                   * x.get("depth") * 0.5,
                   2, unroll, alias="irregular"),
        ],
        [_stage("pooling", lambda x: x.get("outer") * 2.0, 1, unroll,
                alias="merge")],
    ])


def lu_app(unroll: int = 1) -> StreamingApp:
    """The synthesized LU-decomposition pipeline over sparse matrices."""
    return StreamingApp(name="lu", stages=[
        [_stage("lu_init", lambda x: x.get("n") * 4, 1, unroll)],
        [_stage("decompose", lambda x: x.get("nnz") * 0.8, 1, unroll)],
        [
            _stage("solver0", _solver0_batch, 2, unroll),
            _stage("solver1",
                   lambda x: x.get("nnz") * 0.35 + x.get("n"), 2,
                   unroll),
        ],
        [
            _stage("invert", lambda x: x.get("n") * 3, 1, unroll),
            _stage("determinant", lambda x: x.get("n") * 2.5, 2,
                   unroll),
        ],
    ])
