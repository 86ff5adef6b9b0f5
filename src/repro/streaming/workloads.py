"""Synthetic input streams with the published datasets' statistics.

The paper streams (a) the ENZYMES protein graphs through a 2-layer GCN
— 600 graphs, edge degree 2 to 126 with mean 32.6 — and (b) 150 sparse
matrices (within 100x100, from the UF collection) through an LU
pipeline. Neither dataset ships with this reproduction; these
generators produce streams with matched size/sparsity statistics, which
is all the experiment consumes: the bottleneck-shifting dynamics of
Fig 13 are driven purely by the *variance of per-input kernel
iteration counts* (DESIGN.md section 4).

Every generator derives from :class:`SegmentedWorkload` and produces
its stream as lazy :class:`~repro.streaming.stage.FeatureBlock` chunks
(:meth:`SegmentedWorkload.feature_blocks`), holding O(block) memory
regardless of stream length: a million-input run never materializes a
million of anything. :func:`take_block` and :func:`skip_blocks` cut a
block stream into a profiling prefix and the rest.

Seeding convention (the SweepExecutor one, see ``repro.utils.rng``):
the stream is cut into fixed :data:`SEGMENT_INPUTS`-input segments and
segment ``i`` draws from ``worker_rng(seed, i)`` — a ``SeedSequence``
spawn-key child of the parent seed. Segment content is therefore a
pure function of ``(seed, segment index)``:

* two streams built from the same seed are byte-equal, in the same
  process or across processes (no dependence on consumption order,
  object identity or hash randomization);
* ``feature_blocks(block_size)`` *re-chunks* the fixed segments, so
  every block size yields the same values;
* each segment is one batched numpy draw, so block production is
  vectorized for every generator (the old scalar-recurrence fallback
  for interleaved draws is gone).

A segment is made in two halves: the stream's own RNG draws, then one
elementwise transform of the draws into feature columns. The
transform runs once over the stacked draws of every stream in a batch
(:func:`materialize_streams`, which the fleet simulator uses to
synthesize all its tenants' streams), so many same-shaped streams pay
one transform between them; a lone stream's :meth:`feature_blocks
<SegmentedWorkload.feature_blocks>` is a batch of one.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.streaming.stage import DEFAULT_BLOCK_SIZE, FeatureBlock
from repro.utils.rng import worker_rng

__all__ = [
    "SEGMENT_INPUTS",
    "EnzymeGraphStream",
    "SegmentedWorkload",
    "SparseMatrixStream",
    "graph_features",
    "graph_size_draws",
    "materialize_streams",
    "rechunk_blocks",
    "skip_blocks",
    "take_block",
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


def take_block(blocks: Iterable[FeatureBlock],
               count: int) -> FeatureBlock:
    """The first ``count`` inputs of a block stream as one block (a
    profiling prefix), consuming only the blocks it needs."""
    blocks = iter(blocks)
    taken: list[FeatureBlock] = []
    length = 0
    while length < count and (block := next(blocks, None)) is not None:
        taken.append(block)
        length += len(block)
    if not taken:
        return FeatureBlock({})
    return FeatureBlock(
        {key: _cat([block.features[key] for block in taken])[:count]
         for key in taken[0].features},
        start_index=taken[0].start_index,
    )


def rechunk_blocks(segments: Iterable[dict[str, np.ndarray]],
                   block_size: int) -> Iterator[FeatureBlock]:
    """Re-chunk an iterable of equal-key feature-column dicts into
    ``block_size``-input :class:`FeatureBlock`s.

    Blocks are exactly ``block_size`` long except a final partial one;
    ``start_index`` counts the stream from 0. Column values pass
    through untouched, so the emitted stream is independent of how the
    producer segmented it.
    """
    for start, columns in _rechunk(segments, block_size):
        yield FeatureBlock(columns, start_index=start)


def _rechunk(segments: Iterable[dict[str, np.ndarray]], block_size: int,
             ) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """:func:`rechunk_blocks` along the columns' last axis, as ``(start
    index, columns)`` pairs: a batch's ``(rows, count)`` columns cut
    into every row's blocks at once."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    pending: dict[str, list[np.ndarray]] = {}
    buffered = 0
    emitted = 0
    for segment in segments:
        n = next(iter(segment.values())).shape[-1] if segment else 0
        pos = 0
        while pos < n:
            take = min(block_size - buffered, n - pos)
            for key, column in segment.items():
                pending.setdefault(key, []).append(
                    column[..., pos:pos + take])
            buffered += take
            pos += take
            if buffered == block_size:
                yield emitted, {k: _cat(v) for k, v in pending.items()}
                emitted += buffered
                pending = {}
                buffered = 0
    if buffered:
        yield emitted, {k: _cat(v) for k, v in pending.items()}


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class SegmentedWorkload:
    """Base class for segment-addressed synthetic streams.

    Subclasses provide ``num_inputs()`` and a segment in two halves:

    * ``segment_draws(rng, count)`` — the random draws of ``count``
      consecutive inputs from ``rng`` (already derived for that
      segment), as a tuple of arrays whose first axis is the input.
      Only this half touches a generator; it runs once per stream.
    * ``transform(draws, start, count)`` — the feature columns, from
      the draws of a batch of streams stacked on a new leading row axis
      (each draw array has shape ``(rows, count, ...)``, each column
      must have shape ``(rows, count)``). Clips, casts, products and
      curves of the absolute input index ``start + arange(count)``,
      all elementwise, so a row's values never depend on its batch.

    Everything else — the fixed segmentation, batching and re-chunking
    to arbitrary block sizes — is shared.
    """

    #: Subclasses are dataclasses carrying their own ``seed`` field.
    seed: int

    def num_inputs(self) -> int:
        raise NotImplementedError

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def batch_key(self) -> tuple:
        """Streams with equal keys synthesize as one batch: the class
        and every field but ``seed`` (the length included)."""
        cls = type(self)
        return (cls, *map(self.__getattribute__, _batch_fields(cls)))

    def _segments(self, seeds: Sequence[int],
                  ) -> Iterator[dict[str, np.ndarray]]:
        """Every segment as ``(len(seeds), count)`` feature columns, row
        ``i`` drawn from ``seeds[i]`` and this stream's other fields."""
        total = self.num_inputs()
        for index, start in enumerate(range(0, total, SEGMENT_INPUTS)):
            count = min(SEGMENT_INPUTS, total - start)
            draws = [self.segment_draws(worker_rng(seed, index), count)
                     for seed in seeds]
            yield self.transform(tuple(map(np.stack, zip(*draws))),
                                 start, count)

    def feature_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                       ) -> Iterator[FeatureBlock]:
        """The stream as lazy, constant-memory feature blocks.

        Values are identical for every ``block_size`` (blocks re-chunk
        the fixed segments) and to this stream's row of any batch.
        """
        return _row_blocks(_rechunk(self._segments([self.seed]),
                                    block_size), 0)


@functools.cache
def _batch_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.name != "seed")


def _row_blocks(chunks: Iterable[tuple[int, dict[str, np.ndarray]]],
                row: int) -> Iterator[FeatureBlock]:
    """Row ``row`` of batched ``(start index, columns)`` chunks, as
    feature blocks of views."""
    for start, columns in chunks:
        yield FeatureBlock({key: column[row]
                            for key, column in columns.items()},
                           start_index=start)


def materialize_streams(streams: Sequence,
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        ) -> list[list[FeatureBlock]]:
    """Every stream's feature blocks as a list, in ``streams`` order.

    :class:`SegmentedWorkload` streams with equal
    :meth:`~SegmentedWorkload.batch_key` synthesize as one batch, and
    each gets views of its own rows. Trace replays with equal
    ``replay_key()`` (one parse, one length) are gathered once, and
    each gets the same read-only blocks. Any other stream lists its own
    ``feature_blocks``. Each list holds the values of that stream's
    ``feature_blocks(block_size)``.
    """
    blocks: list = [None] * len(streams)
    batches: dict[tuple, list[int]] = {}
    replays: dict[tuple, list[int]] = {}
    for i, stream in enumerate(streams):
        if isinstance(stream, SegmentedWorkload):
            batches.setdefault(stream.batch_key(), []).append(i)
        elif hasattr(stream, "replay_key"):
            replays.setdefault(stream.replay_key(), []).append(i)
        else:
            blocks[i] = list(stream.feature_blocks(block_size))
    for members in batches.values():
        chunks = list(_rechunk(streams[members[0]]._segments(
            [streams[i].seed for i in members]), block_size))
        for row, i in enumerate(members):
            blocks[i] = list(_row_blocks(chunks, row))
    for members in replays.values():
        shared = list(streams[members[0]].feature_blocks(block_size))
        for block in shared:
            for column in block.features.values():
                column.flags.writeable = False
        for i in members:
            blocks[i] = list(shared)
    return blocks


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

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return graph_size_draws(rng, count)

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        (sizes,) = draws
        return graph_features(sizes[..., 0], sizes[..., 1])


def graph_size_draws(rng: np.random.Generator,
                     count: int) -> tuple[np.ndarray]:
    """One broadcast lognormal draw per segment: column 0 is the node
    draw, column 1 the degree draw (ENZYMES statistics)."""
    return (rng.lognormal(mean=(3.4, 3.3), sigma=(0.45, 0.55),
                          size=(count, 2)),)


def graph_features(node_draw: np.ndarray,
                   degree_draw: np.ndarray) -> dict[str, np.ndarray]:
    """The GCN feature columns from node and degree draws: node counts
    clipped to 3..126 and truncated, degrees clipped to 2..126, and
    ``nnz`` at least one per node."""
    n_nodes = np.clip(node_draw, 3, 126).astype(np.int64)
    degree = np.clip(degree_draw, 2, 126)
    nnz = np.maximum(n_nodes, (n_nodes * degree).astype(np.int64))
    return {
        "n_nodes": n_nodes.astype(np.float64),
        "degree": degree,
        "nnz": nnz.astype(np.float64),
        "features": np.full(n_nodes.shape, 16.0),
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

    def segment_draws(self, rng: np.random.Generator,
                      count: int) -> tuple[np.ndarray, ...]:
        return (rng.integers(16, self.max_order + 1, size=count),
                rng.uniform(np.log(0.02), np.log(0.35), size=count))

    def transform(self, draws: tuple[np.ndarray, ...], start: int,
                  count: int) -> dict[str, np.ndarray]:
        n, log_density = draws
        density = np.exp(log_density)
        nnz = np.maximum(n, (n * n * density).astype(np.int64))
        return {
            "n": n.astype(np.float64),
            "density": density,
            "nnz": nnz.astype(np.float64),
        }
