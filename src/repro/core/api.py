"""High-level facade over the relationship-computation methods.

``compute_relationships`` is the single entry point a downstream user
needs: it accepts a :class:`~repro.qb.model.CubeSpace` (as loaded from
RDF) or a pre-built :class:`~repro.core.space.ObservationSpace`, and a
method name::

    from repro import compute_relationships, Method

    result = compute_relationships(cube, method=Method.CUBE_MASKING)

``update_relationships`` implements the incremental recomputation the
paper lists as future work: after appending new observations to a
space, only pairs that involve a new observation are (re)checked, by
feeding just those rows to the one cubeMasking executor of
:mod:`repro.core.cubemask`.
"""

from __future__ import annotations

import importlib
import inspect
from enum import Enum
from typing import Iterable, Mapping

from repro.errors import AlgorithmError
from repro.core.results import RelationshipDelta, RelationshipSet
from repro.core.space import NewObservation, ObservationSpace
from repro.qb.model import CubeSpace
from repro.rdf.terms import URIRef

__all__ = [
    "Method",
    "compute_relationships",
    "update_relationships",
    "remove_observations",
    "insertion_delta",
    "removal_delta",
]


class Method(str, Enum):
    """The five strategies evaluated in the paper plus two extensions.

    ``STREAMING`` is the memory-bounded baseline and ``HYBRID`` the
    cubeMasking+clustering combination — both future-work items of the
    paper's Section 6, implemented here.
    """

    BASELINE = "baseline"
    CLUSTERING = "clustering"
    CUBE_MASKING = "cube_masking"
    SPARQL = "sparql"
    RULES = "rules"
    STREAMING = "streaming"
    HYBRID = "hybrid"


#: Each method's implementation as ``(module, function)``.  The module
#: is imported on first use, so the comparators in :mod:`repro.paper`
#: load only when their method runs.
_IMPLEMENTATIONS = {
    Method.BASELINE: ("repro.core.baseline", "compute_baseline"),
    Method.CLUSTERING: ("repro.paper.cluster_method", "compute_clustering"),
    Method.CUBE_MASKING: ("repro.core.cubemask", "compute_cubemask"),
    Method.SPARQL: ("repro.paper.sparql_method", "compute_sparql"),
    Method.RULES: ("repro.paper.rules_method", "compute_rules"),
    Method.STREAMING: ("repro.core.streaming", "compute_baseline_streaming"),
    Method.HYBRID: ("repro.paper.hybrid", "compute_hybrid"),
}


def _checked(method: Method, implementation, options: Mapping):
    """Return ``implementation`` once it takes every name in ``options``."""
    accepted = list(inspect.signature(implementation).parameters)[1:]
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise AlgorithmError(f"options not supported by the {method.value} method: {unknown}")
    return implementation


def _implementation(method: Method, options: Mapping):
    """Import ``method``'s implementation and check ``options`` against it."""
    module, name = _IMPLEMENTATIONS[method]
    return _checked(method, getattr(importlib.import_module(module), name), options)


def _as_space(data: CubeSpace | ObservationSpace) -> ObservationSpace:
    if isinstance(data, ObservationSpace):
        return data
    if isinstance(data, CubeSpace):
        return ObservationSpace.from_cubespace(data)
    raise AlgorithmError(f"expected CubeSpace or ObservationSpace, got {type(data).__name__}")


#: ``compute_relationships`` options that route the computation through
#: the fault-tolerant :class:`~repro.core.runner.MaterializationRunner`
#: instead of the direct single-pass dispatch.
_RUNNER_OPTIONS = (
    "checkpoint",
    "resume",
    "unit_size",
    "max_retries",
    "retry_backoff",
    "unit_timeout",
    "fault_plan",
    "fallback_sequential",
)


def compute_relationships(
    data: CubeSpace | ObservationSpace,
    method: Method | str = Method.CUBE_MASKING,
    **options,
) -> RelationshipSet:
    """Compute S_F, S_P and S_C with the chosen method.

    ``options`` are forwarded to the method implementation (for example
    ``backend=`` for the baseline, ``algorithm=`` / ``sample_rate=`` for
    clustering, ``prefetch_children=`` for cube masking,
    ``mode=`` for the SPARQL and rule comparators).  An option the
    chosen method does not take raises
    :class:`~repro.errors.AlgorithmError` naming the method and the
    option.

    Passing any resilience option — ``checkpoint=``, ``resume=``,
    ``unit_size=``, ``max_retries=``, ``retry_backoff=``,
    ``unit_timeout=``, ``fault_plan=``, ``fallback_sequential=`` —
    executes the computation as recorded, resumable work units via
    :class:`~repro.core.runner.MaterializationRunner`: an interrupted
    run restarted with ``resume=True`` continues from its last durable
    unit and yields a result identical to an uninterrupted run.
    """
    try:
        resolved = Method(method)
    except ValueError:
        names = ", ".join(m.value for m in Method)
        raise AlgorithmError(f"unknown method {method!r}; expected one of: {names}") from None
    if any(name in options for name in _RUNNER_OPTIONS):
        from repro.core.runner import run_materialization

        return run_materialization(data, resolved, **options)
    space = _as_space(data)
    if resolved is Method.CUBE_MASKING and (
        options.pop("parallel", False) or "workers" in options
    ):
        from repro.core.parallel import compute_cubemask_parallel

        implementation = _checked(resolved, compute_cubemask_parallel, options)
    else:
        implementation = _implementation(resolved, options)
    return implementation(space, **options)


def update_relationships(
    space: ObservationSpace,
    result: RelationshipSet,
    new_observations: Iterable[NewObservation],
    *,
    return_delta: bool = False,
) -> RelationshipSet | tuple[RelationshipSet, RelationshipDelta]:
    """Incrementally extend ``result`` with relationships of new data.

    :func:`insertion_delta` followed by ``result.apply_delta``:
    ``result`` is mutated in place and returned.  With
    ``return_delta=True`` the return value is ``(result, delta)``, the
    hook the relationship service uses for O(|delta|) index
    maintenance and cache invalidation.
    """
    delta = insertion_delta(space, result, new_observations)
    result.apply_delta(delta)
    return (result, delta) if return_delta else result


def insertion_delta(
    space: ObservationSpace,
    result: RelationshipSet,
    new_observations: Iterable[NewObservation],
) -> RelationshipDelta:
    """Append new observations to ``space``; return the pairs they add.

    The ``(uri, dataset, dims, measures)`` tuples are appended as one
    batch (:meth:`ObservationSpace.extend`: validated whole before any
    row lands; a URI the space already holds adds nothing when its
    content is identical and raises
    :class:`~repro.errors.ObservationConflictError` otherwise).  Only
    pairs that involve at least one new observation are checked, by the
    cubeMasking executor (:func:`~repro.core.cubemask.score_batch`) fed
    only new rows.  For each cube holding new rows it scores, per
    direction, at most two batches: the cubes whose level signatures
    dominate (full containment and complementarity possible) and those
    that only partially dominate (partial containment only); cubes
    admitting neither direction are skipped without touching a
    dimension, exactly like the batch sweep.  Direction 1 scores old
    members of the admissible cubes against the new rows; direction 2
    scores the new rows against every admissible member, new ones
    included.  ``result`` is read, not changed.
    """
    import numpy as np

    from repro.core import kernels as _kernels
    from repro.core.cubemask import emit_block, score_batch

    start = len(space)
    if not space.extend(new_observations):
        return RelationshipDelta()
    collect_masks = len(space.dimensions) <= _kernels.DIM_MASK_LIMIT
    plan = _kernels.build_kernel_plan(space, collect_partial_dimensions=collect_masks)
    levels, members, offsets, cube_of_row = space.cubes()
    targets = ("full", "complementary", "partial")
    added = RelationshipSet()

    def emit(block) -> None:
        emit_block(added, block, space.uris, space.dimensions, space)

    def rows_of(selected, old_only: bool) -> np.ndarray:
        rows = [members[offsets[c] : offsets[c + 1]] for c in np.flatnonzero(selected)]
        rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        return rows[rows < start] if old_only else rows

    for index in np.unique(cube_of_row[start:]):
        cube = members[offsets[index] : offsets[index + 1]]
        new_rows = cube[cube >= start]
        # Direction 1: cubes that may contain this cube (old members
        # only; new-new pairs are covered by direction 2).
        # Direction 2: cubes this cube may contain.
        for le, incoming in ((levels <= levels[index], True), (levels[index] <= levels, False)):
            containing = le.all(axis=1)
            sideways = le.any(axis=1) & ~containing
            for selected, dominates in ((containing, True), (sideways, False)):
                others = rows_of(selected, old_only=incoming)
                if not others.size:
                    continue
                if incoming:
                    emit(score_batch(plan, others, new_rows, dominates, targets, collect_masks))
                else:
                    emit(score_batch(plan, new_rows, others, dominates, targets, collect_masks))
    delta = RelationshipDelta(
        added_full=added.full - result.full,
        added_partial=added.partial - result.partial,
        added_complementary=added.complementary - result.complementary,
    )
    for pair in delta.added_partial:
        delta.partial_map[pair] = added.partial_map[pair]
        delta.degrees[pair] = added.degrees[pair]
    return delta


def remove_observations(
    space: ObservationSpace,
    result: RelationshipSet,
    uris: Iterable[URIRef],
    *,
    return_delta: bool = False,
) -> tuple[ObservationSpace, RelationshipSet] | tuple[ObservationSpace, RelationshipSet, RelationshipDelta]:
    """Incrementally retract observations.

    :func:`removal_delta` followed by ``result.apply_delta``: returns
    ``(new_space, result)`` with ``result`` mutated in place.  With
    ``return_delta=True`` a third element reports the purged pairs
    (``delta.removed_*``) so an index over ``result`` can retract the
    same edges without a rebuild.
    """
    new_space, delta = removal_delta(space, result, uris)
    result.apply_delta(delta)
    return (new_space, result, delta) if return_delta else (new_space, result)


def removal_delta(
    space: ObservationSpace, result: RelationshipSet, uris: Iterable[URIRef]
) -> tuple[ObservationSpace, RelationshipDelta]:
    """``(new_space, delta)`` of retracting ``uris``; neither input changes.

    ``new_space`` is a re-indexed copy without the removed
    observations and ``delta.removed_*`` every pair touching one of
    them — retraction never requires recomputation because
    relationships are pairwise.
    """
    import numpy as np

    removed = set(uris)
    unknown = [uri for uri in removed if uri not in space]
    if unknown:
        raise AlgorithmError(f"cannot remove unknown observations: {sorted(unknown)[:3]}")
    keep = np.ones(len(space), dtype=bool)
    keep[[space.index_of(uri) for uri in removed]] = False
    delta = RelationshipDelta(
        removed_full={pair for pair in result.full if set(pair) & removed},
        removed_partial={pair for pair in result.partial if set(pair) & removed},
        removed_complementary={pair for pair in result.complementary if set(pair) & removed},
    )
    return space.select(np.flatnonzero(keep)), delta
