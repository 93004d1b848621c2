"""The baseline algorithm (Section 3.1, Algorithms 1 and 2).

``compute_baseline`` builds the occurrence matrix, runs ``computeOCM``
and derives the three relationship sets:

* full containment: ``counts[a, b] == |P|`` and shared measure,
* partial containment: ``0 < counts[a, b] < |P|`` and shared measure
  (with the per-dimension ``map_P`` when requested),
* complementarity: mutual dimension-level full containment
  (``counts[a, b] == counts[b, a] == |P|``).

Θ(n²) pair complexity, exactly as analysed in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import Backend, OccurrenceMatrix, OCMResult
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace

__all__ = ["compute_baseline", "derive_relationships", "measure_overlap_matrix"]


def measure_overlap_matrix(space: ObservationSpace) -> np.ndarray:
    """Boolean n×n matrix of pairwise measure-set intersection,
    expanded from the space's measure groups: distinct measure sets are
    compared once, the "simple lookup" of the paper."""
    groups = space.groups
    return space.group_overlap[groups[:, None], groups[None, :]]


def normalize_targets(targets, collect_partial: bool = True) -> frozenset[str]:
    """Resolve the ``targets`` option shared by all methods.

    ``None`` means all three relationship types; ``collect_partial=False``
    (the legacy knob) removes ``"partial"``.
    """
    allowed = {"full", "partial", "complementary"}
    chosen = set(targets) if targets is not None else set(allowed)
    unknown = chosen - allowed
    if unknown:
        raise ValueError(f"unknown relationship targets: {sorted(unknown)}")
    if not collect_partial:
        chosen.discard("partial")
    return frozenset(chosen)


def derive_relationships(
    space: ObservationSpace,
    ocm: OCMResult,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = True,
    targets=None,
) -> RelationshipSet:
    """Algorithm 2 ``baseline``: read the relationship sets off the OCM."""
    targets = normalize_targets(targets, collect_partial)
    result = RelationshipSet()
    n = len(space)
    if n == 0:
        return result
    counts = ocm.counts
    total = ocm.dimension_count
    uris = space.uris

    full_dims = counts == total
    np.fill_diagonal(full_dims, False)

    if "full" in targets or "partial" in targets:
        overlap = measure_overlap_matrix(space)

    if "full" in targets:
        full_mask = full_dims & overlap
        for a, b in np.argwhere(full_mask):
            result.add_full(uris[a], uris[b])

    if "complementary" in targets:
        compl_mask = full_dims & full_dims.T
        for a, b in np.argwhere(compl_mask):
            if a < b:
                result.add_complementary(uris[a], uris[b])

    if "partial" in targets:
        partial_mask = (counts > 0) & (counts < total) & overlap
        np.fill_diagonal(partial_mask, False)
        pairs = np.argwhere(partial_mask)
        if collect_partial_dimensions and ocm.has_cms:
            cms = {dimension: ocm.cm(dimension) for dimension in ocm.dimensions}
            for a, b in pairs:
                dims = frozenset(
                    dimension for dimension in ocm.dimensions if cms[dimension][a, b]
                )
                result.add_partial(uris[a], uris[b], dims, counts[a, b] / total)
        else:
            for a, b in pairs:
                result.add_partial(uris[a], uris[b], degree=counts[a, b] / total)
    return result


def compute_baseline(
    space: ObservationSpace,
    backend: Backend = "numpy",
    collect_partial: bool = True,
    collect_partial_dimensions: bool = True,
    chunk: int = 512,
    targets=None,
) -> RelationshipSet:
    """Run the full baseline pipeline on an observation space.

    Set ``collect_partial=False`` to reproduce the paper's cheaper
    "full containment and complementarity only" configuration, where
    partial pairs are never enumerated; ``targets`` narrows the output
    to a subset of ``{"full", "partial", "complementary"}`` (the
    per-relationship timings of Figures 5a-c).
    """
    from repro.obs.tracing import trace

    resolved = normalize_targets(targets, collect_partial)
    with trace("baseline.compute", observations=len(space), backend=str(backend)):
        with trace("baseline.ocm"):
            matrix = OccurrenceMatrix(space, backend=backend)
            ocm = matrix.compute_ocm(
                keep_cms="partial" in resolved and collect_partial_dimensions,
                chunk=chunk,
            )
        with trace("baseline.derive"):
            return derive_relationships(
                space,
                ocm,
                collect_partial_dimensions=collect_partial_dimensions,
                targets=resolved,
            )
