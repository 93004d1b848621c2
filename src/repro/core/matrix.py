"""The occurrence matrix OM (Section 3.1).

Rows are observations, columns are code-list values; a cell is 1 when
the observation's value for the column's dimension equals the column
code *or any of its descendants* — i.e. each row carries the reflexive
ancestor closure of its dimension values, per dimension block
(``OM = [OM_1 ... OM_|C|]``).

Two backends implement the bit vectors:

* ``numpy`` — bits packed into ``uint8`` blocks; the per-dimension
  containment matrices ``CM_i`` are computed with chunked broadcast
  AND-compare, which is the vectorised equivalent of Algorithm 1,
* ``python`` — arbitrary-precision ints as bitmasks, the literal
  ``a AND b == b`` conditional function of the paper.

The ablation benchmark :mod:`benchmarks.bench_ablation_bitset` compares
the two.
"""

from __future__ import annotations

from typing import Literal as TypingLiteral

import numpy as np

from repro.errors import AlgorithmError
from repro.core.space import ObservationSpace
from repro.rdf.terms import URIRef

__all__ = ["OccurrenceMatrix", "OCMResult"]

Backend = TypingLiteral["numpy", "python"]


class OCMResult:
    """Output of Algorithm 1: integer containment counts plus CM access.

    ``counts[j, k]`` is the number of dimensions on which observation
    ``j`` contains observation ``k``; the normalised OCM of the paper
    is ``counts / |P|`` (see :meth:`ocm`).
    """

    __slots__ = ("counts", "dimension_count", "_cms", "_dimensions")

    def __init__(
        self,
        counts: np.ndarray,
        dimension_count: int,
        cms: dict[URIRef, np.ndarray] | None,
        dimensions: tuple[URIRef, ...],
    ):
        self.counts = counts
        self.dimension_count = dimension_count
        self._cms = cms
        self._dimensions = dimensions

    def ocm(self) -> np.ndarray:
        """The normalised overall containment matrix (float64 in [0, 1])."""
        if self.dimension_count == 0:
            return np.ones_like(self.counts, dtype=np.float64)
        return self.counts.astype(np.float64) / self.dimension_count

    def cm(self, dimension: URIRef) -> np.ndarray:
        """The boolean CM_i matrix for one dimension (if retained)."""
        if self._cms is None:
            raise AlgorithmError("per-dimension CMs were not retained (keep_cms=False)")
        return self._cms[dimension]

    @property
    def dimensions(self) -> tuple[URIRef, ...]:
        return self._dimensions

    @property
    def has_cms(self) -> bool:
        return self._cms is not None


class OccurrenceMatrix:
    """Per-dimension bit vectors for a whole observation space."""

    def __init__(self, space: ObservationSpace, backend: Backend = "numpy"):
        if backend not in ("numpy", "python"):
            raise AlgorithmError(f"unknown backend {backend!r}")
        self.space = space
        self.backend: Backend = backend
        #: column offset of each code within its dimension block
        self.feature_index: dict[URIRef, dict[object, int]] = {}
        self._blocks: dict[URIRef, np.ndarray] = {}
        self._masks: dict[URIRef, list[int]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        space = self.space
        rows_codes = [space.codes(row) for row in range(len(space))]
        for position, dimension in enumerate(space.dimensions):
            hierarchy = space.hierarchies[dimension]
            index = {code: i for i, code in enumerate(sorted(hierarchy, key=str))}
            self.feature_index[dimension] = index
            rows = np.zeros((len(space), len(index)), dtype=bool)
            # One bit pattern per distinct code of the column.
            patterns: dict[object, list[int]] = {}
            for row, codes in enumerate(rows_codes):
                code = codes[position]
                if code not in patterns:
                    patterns[code] = [index[c] for c in hierarchy.ancestors(code)]
                rows[row, patterns[code]] = True
            if self.backend == "numpy":
                self._blocks[dimension] = np.packbits(rows, axis=1)
            else:
                packed = np.packbits(rows, axis=1, bitorder="little")
                self._masks[dimension] = [int.from_bytes(r.tobytes(), "little") for r in packed]

    # ------------------------------------------------------------------
    def dense(self) -> tuple[np.ndarray, list[tuple[URIRef, object]]]:
        """The full 0/1 matrix with (dimension, code) column labels.

        This is the representation printed as Table 2 of the paper.
        Only sensible for small inputs; intended for examples and tests.
        """
        columns: list[tuple[URIRef, object]] = []
        blocks: list[np.ndarray] = []
        for dimension in self.space.dimensions:
            codes = sorted(self.feature_index[dimension], key=lambda c: self.feature_index[dimension][c])
            columns.extend((dimension, code) for code in codes)
            blocks.append(self._bits(dimension))
        if not blocks:
            return np.zeros((len(self.space), 0), dtype=np.uint8), columns
        return np.concatenate(blocks, axis=1).astype(np.uint8), columns

    def _bits(self, dimension: URIRef) -> np.ndarray:
        width = len(self.feature_index[dimension])
        if self.backend == "numpy":
            return np.unpackbits(self._blocks[dimension], axis=1)[:, :width].astype(bool)
        masks = self._masks[dimension]
        out = np.zeros((len(masks), width), dtype=bool)
        for row, mask in enumerate(masks):
            for col in range(width):
                if mask >> col & 1:
                    out[row, col] = True
        return out

    # ------------------------------------------------------------------
    def containment_matrix(self, dimension: URIRef, chunk: int = 512) -> np.ndarray:
        """CM_i: ``CM[j, k]`` is True iff observation j contains k on
        this dimension (``bits(j) ⊆ bits(k)`` — the paper's
        ``o_j AND o_k == o_j`` conditional function)."""
        n = len(self.space)
        out = np.zeros((n, n), dtype=bool)
        if self.backend == "numpy":
            block = self._blocks[dimension]
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                # (c, 1, bytes) AND (1, n, bytes) == (c, 1, bytes)
                piece = block[start:stop, None, :] & block[None, :, :]
                out[start:stop] = np.all(piece == block[start:stop, None, :], axis=2)
            return out
        masks = self._masks[dimension]
        for j, mj in enumerate(masks):
            row = out[j]
            for k, mk in enumerate(masks):
                if mj & mk == mj:
                    row[k] = True
        return out

    def compute_ocm(self, keep_cms: bool = True, chunk: int = 512) -> OCMResult:
        """Algorithm 1 ``computeOCM``: sum the per-dimension CMs.

        ``counts`` is kept as integers so downstream checks are exact
        (``count == |P|`` instead of ``float == 1.0``).
        """
        n = len(self.space)
        dims = self.space.dimensions
        counts = np.zeros((n, n), dtype=np.int32)
        cms: dict[URIRef, np.ndarray] | None = {} if keep_cms else None
        for dimension in dims:
            cm = self.containment_matrix(dimension, chunk=chunk)
            counts += cm
            if cms is not None:
                cms[dimension] = cm
        return OCMResult(counts, len(dims), cms, dims)

    # ------------------------------------------------------------------
    def pair_containment_count(self, a: int, b: int) -> int:
        """Dimensions on which ``a`` contains ``b`` (single-pair probe)."""
        count = 0
        if self.backend == "numpy":
            for dimension in self.space.dimensions:
                block = self._blocks[dimension]
                if np.array_equal(block[a] & block[b], block[a]):
                    count += 1
        else:
            for dimension in self.space.dimensions:
                masks = self._masks[dimension]
                if masks[a] & masks[b] == masks[a]:
                    count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"OccurrenceMatrix(rows={len(self.space)}, dimensions={len(self.space.dimensions)}, "
            f"backend={self.backend!r})"
        )
