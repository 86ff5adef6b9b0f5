"""Pipeline stages and the stream's one input representation.

A stream is a sequence of feature blocks (:class:`FeatureBlock`):
batches of consecutive inputs as dicts of equal-length numpy feature
columns.
Every kernel has one iteration model, written over a block
(``block.get(key)`` returns a whole column), and
:meth:`KernelStage.iterations_block` turns its output into per-input
iteration counts — what the runtime controller, DRIPS and the
partitioner's profile read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.dfg.graph import DFG
from repro.errors import StreamingError

#: Default batch size for block-based input pipelines. Big enough that
#: per-block Python overhead vanishes, small enough that a streaming
#: run holds only a few hundred KB of input state.
DEFAULT_BLOCK_SIZE = 8192

#: The first float64 count ``astype(np.int64)`` cannot represent.
_INT64_LIMIT = 2.0 ** 63


class FeatureBlock:
    """A batch of consecutive stream inputs as feature arrays.

    ``get(key)`` returns the whole column (a float64 array);
    ``start_index`` is the stream position of the block's first input.
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

    def __repr__(self) -> str:
        keys = ",".join(sorted(self.features))
        return (f"FeatureBlock({self._length} inputs @ "
                f"{self.start_index}: {keys})")


@dataclass
class KernelStage:
    """One kernel of a streaming pipeline.

    Attributes:
        name: Kernel name (Table I row).
        dfg: The kernel's dataflow graph.
        iteration_model: FeatureBlock -> the loop iterations this
            kernel executes for each of the block's inputs (array-like,
            or a scalar for a fixed-shape kernel). Data-dependent
            kernels (SpMV-like) vary with the input.
        preferred_islands: Table I's island allocation for the 6x6
            prototype (used as the partitioner's search seed).
    """

    name: str
    dfg: DFG
    iteration_model: Callable[[FeatureBlock], object]
    preferred_islands: int = 1

    def iterations_block(self, block: FeatureBlock) -> np.ndarray:
        """Per-input iteration counts for a whole block (int64 array).

        Counts truncate toward zero and clamp at 1. A count that is not
        finite or does not fit int64 raises
        :class:`~repro.errors.StreamingError`.
        """
        counts = np.asarray(self.iteration_model(block))
        if counts.shape == ():  # constant (fixed-shape kernel)
            counts = np.full(len(block), counts)
        if counts.shape != (len(block),):
            raise ValueError(
                f"iteration model of {self.name!r} returned shape "
                f"{counts.shape} for a {len(block)}-input block"
            )
        if not (np.isfinite(counts).all()
                and (counts < _INT64_LIMIT).all()):
            raise StreamingError(
                f"iteration model of {self.name!r} returned a count that "
                f"is not finite or reaches 2**63"
            )
        return np.maximum(counts, 1).astype(np.int64)

    def __repr__(self) -> str:
        return f"KernelStage({self.name}, pref={self.preferred_islands})"
