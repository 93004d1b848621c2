"""Memory-bounded baseline (the paper's "space efficiency" future work).

``compute_baseline_streaming`` produces exactly the baseline's output
without ever materialising an n×n matrix: observations are processed in
row blocks of ``block_size``; for each block the per-dimension
containment counts against *all* columns are computed with the packed
bit vectors, relationships are emitted, and the block's scratch arrays
are released.  Peak memory is O(block_size · n) instead of O(n²).

The block decomposition is exposed as :class:`StreamingContext` /
:func:`compute_block` so the resilience layer
(:mod:`repro.core.runner`) can treat each row block as an independently
checkpointable work unit: the union of the per-block deltas equals the
monolithic result, and any subset of blocks can be recomputed in
isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AlgorithmError
from repro.core.baseline import measure_overlap_matrix, normalize_targets
from repro.core.matrix import OccurrenceMatrix
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace

__all__ = ["compute_baseline_streaming", "StreamingContext", "compute_block"]


@dataclass
class StreamingContext:
    """Shared read-only state for blocked baseline computation.

    Built once per run (packed bit vectors, measure-overlap matrix,
    URI list); each :func:`compute_block` call then scores one row
    block against all columns using only this context.
    """

    space: ObservationSpace
    targets: frozenset[str]
    collect_partial_dimensions: bool = False
    uris: list = field(init=False)
    overlap: np.ndarray = field(init=False)
    blocks: dict = field(init=False)
    total: int = field(init=False)

    def __post_init__(self) -> None:
        matrix = OccurrenceMatrix(self.space, backend="numpy")
        dimensions = self.space.dimensions
        self.total = len(dimensions)
        self.uris = self.space.uris
        self.overlap = measure_overlap_matrix(self.space)
        self.blocks = {dimension: matrix._blocks[dimension] for dimension in dimensions}

    def block_bounds(self, block_size: int) -> list[tuple[int, int]]:
        """The deterministic row-block partition of the space."""
        n = len(self.space)
        return [(start, min(start + block_size, n)) for start in range(0, n, block_size)]


def compute_block(ctx: StreamingContext, start: int, stop: int) -> RelationshipSet:
    """Relationships whose *container/left* observation lies in
    ``[start, stop)`` — one independently recomputable work unit."""
    space = ctx.space
    n = len(space)
    dimensions = space.dimensions
    total = ctx.total
    uris = ctx.uris
    overlap = ctx.overlap
    blocks = ctx.blocks
    targets = ctx.targets
    result = RelationshipSet()

    want_full = "full" in targets
    want_compl = "complementary" in targets
    want_partial = "partial" in targets

    # Complementarity needs counts in both directions; with blocking we
    # detect it as count[a, b] == total == count computed transposed,
    # which for packed rows is equality of the bit patterns.
    counts = np.zeros((stop - start, n), dtype=np.int16)
    for dimension in dimensions:
        block = blocks[dimension]
        piece = block[start:stop, None, :] & block[None, :, :]
        counts += np.all(piece == block[start:stop, None, :], axis=2)
    rows = np.arange(start, stop)
    counts[rows - start, rows] = -1  # mask the diagonal

    if want_full or want_compl:
        full_dims = counts == total
        if want_full:
            for i, j in np.argwhere(full_dims & overlap[start:stop]):
                result.add_full(uris[start + i], uris[j])
        if want_compl:
            for i, j in np.argwhere(full_dims):
                a = start + i
                if a < j and all(
                    np.array_equal(blocks[d][a], blocks[d][j]) for d in dimensions
                ):
                    result.add_complementary(uris[a], uris[j])

    if want_partial:
        partial = (counts > 0) & (counts < total) & overlap[start:stop]
        for i, j in np.argwhere(partial):
            a = start + i
            if ctx.collect_partial_dimensions:
                dims = space.partial_dimensions(a, j)
                result.add_partial(uris[a], uris[j], dims, counts[i, j] / total)
            else:
                result.add_partial(uris[a], uris[j], degree=counts[i, j] / total)
    del counts
    return result


def compute_baseline_streaming(
    space: ObservationSpace,
    block_size: int = 256,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = False,
    targets=None,
) -> RelationshipSet:
    """Blocked Algorithm 1+2 with O(block_size · n) working memory.

    Produces a result equal to :func:`~repro.core.baseline.compute_baseline`.
    ``collect_partial_dimensions`` re-derives each partial pair's
    dimensions from the hierarchies (no CM matrices are retained).
    """
    if block_size < 1:
        raise AlgorithmError("block_size must be >= 1")
    targets = normalize_targets(targets, collect_partial)
    result = RelationshipSet()
    if len(space) == 0:
        return result
    ctx = StreamingContext(space, targets, collect_partial_dimensions)
    for start, stop in ctx.block_bounds(block_size):
        result.merge(compute_block(ctx, start, stop))
    return result
