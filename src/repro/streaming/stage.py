"""Pipeline stages and stream inputs.

Two input representations coexist:

* :class:`StreamInput` — one input instance as a Python object, what
  the iteration models and the per-input reference loop consume;
* :class:`FeatureBlock` — a *batch* of consecutive inputs as a dict of
  equal-length numpy feature arrays, what the vectorized engine
  consumes. A block answers the same ``get(key)`` protocol as a
  ``StreamInput`` (returning arrays instead of scalars), so iteration
  models written as pure feature arithmetic work on both without
  change.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dfg.graph import DFG

#: Default batch size for block-based input pipelines. Big enough that
#: per-block Python overhead vanishes, small enough that a streaming
#: run holds only a few hundred KB of input state.
DEFAULT_BLOCK_SIZE = 8192


@dataclass(frozen=True)
class StreamInput:
    """One input instance of a streaming application.

    ``features`` carries whatever the iteration models consume — for
    the GCN stream the graph's node count and non-zeros, for the LU
    stream the matrix order and density.
    """

    index: int
    features: dict[str, float] = field(hash=False)

    def get(self, key: str) -> float:
        return self.features[key]


class FeatureBlock:
    """A batch of consecutive stream inputs as feature arrays.

    ``get(key)`` returns the whole column (a float64 array), mirroring
    ``StreamInput.get``; ``row(i)`` materializes one input as a
    :class:`StreamInput` for scalar-only iteration models.
    """

    __slots__ = ("features", "start_index", "_length")

    def __init__(self, features: dict[str, np.ndarray],
                 start_index: int = 0):
        self.features = features
        self.start_index = start_index
        lengths = {len(v) for v in features.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged feature block: lengths {lengths}")
        self._length = lengths.pop() if lengths else 0

    def get(self, key: str) -> np.ndarray:
        return self.features[key]

    def __len__(self) -> int:
        return self._length

    def row(self, i: int) -> StreamInput:
        """Input ``i`` of the block as a scalar :class:`StreamInput`."""
        return StreamInput(self.start_index + i, {
            key: float(column[i]) for key, column in self.features.items()
        })

    def rows(self) -> Iterator[StreamInput]:
        for i in range(self._length):
            yield self.row(i)

    def __repr__(self) -> str:
        keys = ",".join(sorted(self.features))
        return (f"FeatureBlock({self._length} inputs @ "
                f"{self.start_index}: {keys})")


def blocks_of(inputs: Sequence[StreamInput],
              block_size: int = DEFAULT_BLOCK_SIZE,
              ) -> Iterator[FeatureBlock]:
    """Chunk a materialized ``StreamInput`` list into feature blocks.

    The bridge from the scalar representation to the fast engine: the
    arrays hold exactly the inputs' feature values, so a fast run over
    ``blocks_of(inputs)`` sees the same stream the reference engine
    sees over ``inputs``.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    for start in range(0, len(inputs), block_size):
        chunk = inputs[start:start + block_size]
        keys = list(chunk[0].features)
        yield FeatureBlock(
            {k: np.array([item.features[k] for item in chunk],
                         dtype=np.float64) for k in keys},
            start_index=chunk[0].index,
        )


def inputs_of(blocks: Iterable[FeatureBlock]) -> list[StreamInput]:
    """Materialize a block stream back into ``StreamInput`` objects
    (tests and the per-input reference loop use this)."""
    return [row for block in blocks for row in block.rows()]


@dataclass
class KernelStage:
    """One kernel of a streaming pipeline.

    Attributes:
        name: Kernel name (Table I row).
        dfg: The kernel's dataflow graph.
        iteration_model: Input -> loop iterations this kernel executes
            for that input. Data-dependent kernels (SpMV-like) vary
            with the input; fixed-shape kernels return a constant.
        preferred_islands: Table I's island allocation for the 6x6
            prototype (used as the partitioner's search seed).
        batch_model: Optional vectorized twin of ``iteration_model``:
            FeatureBlock -> per-input iteration counts (array-like).
            Only set when its floating-point results are bit-identical
            to mapping ``iteration_model`` over the rows — numpy
            elementwise ``*``/``+`` on float64 qualify, ``**`` does
            not (numpy's SIMD pow rounds differently than libm).
            Without one, :meth:`iterations_block` falls back to the
            scalar model row by row, which is always exact.
    """

    name: str
    dfg: DFG
    iteration_model: Callable[[StreamInput], int]
    preferred_islands: int = 1
    batch_model: Callable[[FeatureBlock], object] | None = None

    def iterations(self, item: StreamInput) -> int:
        count = int(self.iteration_model(item))
        return max(1, count)

    def iterations_block(self, block: FeatureBlock) -> np.ndarray:
        """Per-input iteration counts for a whole block (int64 array).

        Element ``i`` equals ``self.iterations(block.row(i))`` exactly:
        the vectorized path truncates toward zero (what ``int()`` does)
        and clamps at 1, and models without a ``batch_model`` are
        evaluated row by row through the scalar path.
        """
        if self.batch_model is not None:
            counts = np.asarray(self.batch_model(block))
            if counts.shape == ():  # constant (fixed-shape kernel)
                return np.full(len(block), max(1, int(counts)),
                               dtype=np.int64)
            if counts.shape != (len(block),):
                raise ValueError(
                    f"batch model of {self.name!r} returned shape "
                    f"{counts.shape} for a {len(block)}-input block"
                )
            ints = counts.astype(np.int64, copy=False)
            return np.maximum(ints, 1)
        return np.array([self.iterations(row) for row in block.rows()],
                        dtype=np.int64)

    def __repr__(self) -> str:
        return f"KernelStage({self.name}, pref={self.preferred_islands})"
