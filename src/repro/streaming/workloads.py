"""Synthetic input streams with the published datasets' statistics.

The paper streams (a) the ENZYMES protein graphs through a 2-layer GCN
— 600 graphs, edge degree 2 to 126 with mean 32.6 — and (b) 150 sparse
matrices (within 100x100, from the UF collection) through an LU
pipeline. Neither dataset ships with this reproduction; these
generators produce streams with matched size/sparsity statistics, which
is all the experiment consumes: the bottleneck-shifting dynamics of
Fig 13 are driven purely by the *variance of per-input kernel
iteration counts* (DESIGN.md section 4).

Every generator derives from :class:`SegmentedWorkload` and exposes two
shapes of the **same** stream:

* :meth:`SegmentedWorkload.generate` — the whole stream as
  ``StreamInput`` objects (what the per-input reference loop and small
  experiments use);
* :meth:`SegmentedWorkload.feature_blocks` — the stream as lazily
  produced :class:`~repro.streaming.stage.FeatureBlock` chunks, holding
  O(block) memory regardless of stream length. A million-input run
  never materializes a million objects.

Seeding convention (the SweepExecutor one, see ``repro.utils.rng``):
the stream is cut into fixed :data:`SEGMENT_INPUTS`-input segments and
segment ``i`` draws from ``worker_rng(seed, i)`` — a ``SeedSequence``
spawn-key child of the parent seed. Segment content is therefore a
pure function of ``(seed, segment index)``:

* two streams built from the same seed are byte-equal, in the same
  process or across processes (no dependence on consumption order,
  object identity or hash randomization);
* ``feature_blocks(block_size)`` *re-chunks* the fixed segments, so
  every block size yields the same values — and ``generate()`` is
  defined as the flattened block stream, so the two shapes cannot
  drift apart;
* each segment is one batched numpy draw, so block production is
  vectorized for every generator (the old scalar-recurrence fallback
  for interleaved draws is gone).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.streaming.stage import (
    DEFAULT_BLOCK_SIZE,
    FeatureBlock,
    StreamInput,
    blocks_of,
    inputs_of,
)
from repro.utils.rng import worker_rng

__all__ = [
    "SEGMENT_INPUTS",
    "EnzymeGraphStream",
    "SegmentedWorkload",
    "SparseMatrixStream",
    "blocks_of",
    "inputs_of",
    "rechunk_blocks",
    "skip_blocks",
    "take_inputs",
]

#: Inputs per RNG segment. Fixed — independent of the block size a
#: consumer asks for — so the drawn values are addressed purely by
#: (seed, segment index). 4096 keeps per-segment numpy dispatch
#: negligible while holding well under a MB of column state.
SEGMENT_INPUTS = 4096


def skip_blocks(blocks: Iterable[FeatureBlock],
                count: int) -> Iterator[FeatureBlock]:
    """Drop the first ``count`` inputs of a block stream (e.g. the
    profiling prefix a partitioner already consumed)."""
    remaining = count
    for block in blocks:
        if remaining <= 0:
            yield block
            continue
        n = len(block)
        if n <= remaining:
            remaining -= n
            continue
        yield FeatureBlock(
            {k: v[remaining:] for k, v in block.features.items()},
            start_index=block.start_index + remaining,
        )
        remaining = 0


def take_inputs(blocks: Iterable[FeatureBlock],
                count: int) -> list[StreamInput]:
    """Materialize the first ``count`` inputs of a block stream as
    ``StreamInput`` objects (profiling prefixes), consuming only the
    blocks it needs."""
    taken: list[StreamInput] = []
    for block in blocks:
        for row in block.rows():
            if len(taken) >= count:
                return taken
            taken.append(row)
    return taken


def rechunk_blocks(segments: Iterable[dict[str, np.ndarray]],
                   block_size: int) -> Iterator[FeatureBlock]:
    """Re-chunk an iterable of equal-key feature-column dicts into
    ``block_size``-input :class:`FeatureBlock`s.

    Blocks are exactly ``block_size`` long except a final partial one;
    ``start_index`` counts the stream from 0. Column values pass
    through untouched, so the emitted stream is independent of how the
    producer segmented it.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    pending: dict[str, list[np.ndarray]] = {}
    buffered = 0
    emitted = 0
    for segment in segments:
        n = len(next(iter(segment.values()))) if segment else 0
        pos = 0
        while pos < n:
            take = min(block_size - buffered, n - pos)
            for key, column in segment.items():
                pending.setdefault(key, []).append(column[pos:pos + take])
            buffered += take
            pos += take
            if buffered == block_size:
                yield FeatureBlock(
                    {k: _cat(v) for k, v in pending.items()},
                    start_index=emitted,
                )
                emitted += buffered
                pending = {}
                buffered = 0
    if buffered:
        yield FeatureBlock({k: _cat(v) for k, v in pending.items()},
                           start_index=emitted)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SegmentedWorkload:
    """Base class for segment-addressed synthetic streams.

    Subclasses provide ``num_inputs()`` and ``segment_features(rng,
    start, count)`` — one batched draw of ``count`` consecutive inputs
    beginning at absolute stream position ``start``, using ``rng``
    (already derived for that segment). Everything else — the fixed
    segmentation, re-chunking to arbitrary block sizes, and the scalar
    ``generate()`` shape — is shared.
    """

    #: Subclasses are dataclasses carrying their own ``seed`` field.
    seed: int

    def num_inputs(self) -> int:
        raise NotImplementedError

    def segment_features(self, rng: np.random.Generator, start: int,
                         count: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _segments(self) -> Iterator[dict[str, np.ndarray]]:
        total = self.num_inputs()
        for index, start in enumerate(range(0, total, SEGMENT_INPUTS)):
            count = min(SEGMENT_INPUTS, total - start)
            yield self.segment_features(worker_rng(self.seed, index),
                                        start, count)

    def feature_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       ) -> Iterator[FeatureBlock]:
        """The stream as lazy, constant-memory feature blocks.

        Values are identical for every ``block_size`` (blocks re-chunk
        the fixed segments) and equal to :meth:`generate` input for
        input.
        """
        return rechunk_blocks(self._segments(), block_size)

    def generate(self) -> list[StreamInput]:
        """The whole stream, materialized as ``StreamInput`` objects."""
        return inputs_of(self.feature_blocks())


@dataclass
class EnzymeGraphStream(SegmentedWorkload):
    """ENZYMES-like graph stream for the GCN application.

    Node counts follow the dataset's spread (a few to ~125 nodes,
    mean ~33); per-graph average degree is drawn log-normally and
    clipped to the published 2..126 range, centred so the long-run mean
    degree lands near 32.6.
    """

    num_graphs: int = 150
    seed: int = 7

    def num_inputs(self) -> int:
        return self.num_graphs

    def segment_features(self, rng: np.random.Generator, start: int,
                         count: int) -> dict[str, np.ndarray]:
        # One broadcast lognormal draw per segment: column 0 is the
        # node draw, column 1 the degree draw.
        draws = rng.lognormal(mean=(3.4, 3.3), sigma=(0.45, 0.55),
                              size=(count, 2))
        n_nodes = np.clip(draws[:, 0], 3, 126).astype(np.int64)
        degree = np.clip(draws[:, 1], 2, 126)
        nnz = np.maximum(n_nodes, (n_nodes * degree).astype(np.int64))
        return {
            "n_nodes": n_nodes.astype(np.float64),
            "degree": degree,
            "nnz": nnz.astype(np.float64),
            "features": np.full(count, 16.0),
        }


@dataclass
class SparseMatrixStream(SegmentedWorkload):
    """UF-collection-like sparse matrix stream for the LU application.

    Matrix orders are uniform up to 100; densities are log-uniform so
    the stream mixes near-diagonal and fairly dense instances — the
    variance that shifts the LU pipeline's bottleneck between the
    solvers and the lighter stages.
    """

    num_matrices: int = 150
    max_order: int = 100
    seed: int = 11

    def num_inputs(self) -> int:
        return self.num_matrices

    def segment_features(self, rng: np.random.Generator, start: int,
                         count: int) -> dict[str, np.ndarray]:
        n = rng.integers(16, self.max_order + 1, size=count)
        density = np.exp(
            rng.uniform(np.log(0.02), np.log(0.35), size=count)
        )
        nnz = np.maximum(n, (n * n * density).astype(np.int64))
        return {
            "n": n.astype(np.float64),
            "density": density,
            "nnz": nnz.astype(np.float64),
        }
