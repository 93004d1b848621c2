"""The cubeMasking algorithm (Section 3.3, Algorithm 4).

Observations are first hashed into lattice cubes (level signatures);
relationship checks then run only between observations of cube pairs
whose signatures admit the relationship:

* full containment / complementarity: cube A must dominate cube B
  pointwise (``level_A[i] <= level_B[i]`` on all dimensions; equality
  of signatures for complementarity),
* partial containment: at least one dominating dimension.

The method is lossless (100 % recall) because signature dominance is a
necessary condition of the instance-level relationships.

The sweep exists once, in three layers:

* the **planner** (:func:`build_cubemask_state`) hashes the space into
  cubes, enumerates the admissible cube pairs in one deterministic
  order, applies the cube-level measure prefilter and precomputes the
  pruning counters;
* the **executor** (:func:`score_pairs`) walks a slice of that order
  in contiguous same-cube-A runs and scores each run's *dominated* and
  *sideways* partner batch with :func:`score_batch`, the one caller of
  the vectorised kernel (:mod:`repro.core.kernels`);
* **callers** choose which rows to feed and where the blocks go:
  :func:`compute_cubemask` emits every block straight into a
  :class:`~repro.core.results.RelationshipSet`, :func:`score_range`
  scores one checkpointable range, the pool workers of
  :mod:`repro.core.parallel` ship blocks to the parent, and
  :func:`repro.core.api.update_relationships` feeds only new rows.

``prefetch_children`` (Figure 5(g)) plans every target's cube pairs in
one pass; ``prefetch_children=False`` is the ablation that re-derives
cube dominance in one planner pass per target.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.core import kernels as _kernels
from repro.core.lattice import CubeLattice
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.errors import AlgorithmError

__all__ = [
    "compute_cubemask",
    "build_cubemask_state",
    "score_batch",
    "score_pairs",
    "score_range",
    "emit_block",
    "check_kernel",
]

#: Every counter ``compute_cubemask`` maintains when handed a stats
#: dict.  ``instance_comparisons`` counts member pairs actually
#: evaluated; ``pruned_comparisons`` counts pairs skipped without
#: per-instance work (the ``a == b`` diagonal of same-cube scans plus
#: all members of cube pairs dropped by the measure prefilter, which
#: themselves show up in ``pruned_cube_pairs``) — keeping the two
#: separate makes the pruning numbers match Table 4's methodology.
STAT_KEYS = (
    "cubes",
    "cube_pairs",
    "instance_comparisons",
    "pruned_comparisons",
    "pruned_cube_pairs",
    "kernel_pairs",
    "kernel_ns",
)

# Registry metrics are resolved once and cached; kernel_pairs/kernel_ns
# are intentionally absent — repro.core.kernels owns those series.
_REGISTRY_METRICS = None


def _registry_metrics():
    global _REGISTRY_METRICS
    if _REGISTRY_METRICS is None:
        from repro.obs.registry import get_registry

        registry = get_registry()
        _REGISTRY_METRICS = {
            "runs": registry.counter(
                "repro_cubemask_runs_total",
                "Completed cubeMasking materialisations.",
            ),
            "cube_pairs": registry.counter(
                "repro_cubemask_cube_pairs_total",
                "Cube pairs surviving signature dominance pruning.",
            ),
            "instance_comparisons": registry.counter(
                "repro_cubemask_instance_comparisons_total",
                "Observation pairs evaluated at the instance level.",
            ),
            "pruned_comparisons": registry.counter(
                "repro_cubemask_pruned_comparisons_total",
                "Observation pairs skipped without instance-level work.",
            ),
            "pruned_cube_pairs": registry.counter(
                "repro_cubemask_pruned_cube_pairs_total",
                "Cube pairs dropped by the measure-overlap prefilter.",
            ),
            "last_cubes": registry.gauge(
                "repro_cubemask_last_cubes",
                "Lattice cubes in the most recent cubeMasking run.",
            ),
        }
    return _REGISTRY_METRICS


def _flush_counts(counts: dict) -> None:
    metrics = _registry_metrics()
    metrics["runs"].inc()
    for key in (
        "cube_pairs",
        "instance_comparisons",
        "pruned_comparisons",
        "pruned_cube_pairs",
    ):
        if counts[key]:
            metrics[key].inc(counts[key])
    metrics["last_cubes"].set(counts["cubes"])
    # Kernel counters batch their registry pushes; drain the tail so a
    # scrape right after a compute sees the complete numbers.
    _kernels.flush_registry_counters()


def check_kernel(kernel: str) -> None:
    """Validate the legacy ``kernel`` option.

    ``"auto"`` and ``"numpy"`` are accepted and ignored: the vectorised
    kernel is the only instance-check path.  Anything else — including
    the retired tuple-at-a-time ``"python"`` path — is a typed error.
    """
    if kernel not in ("auto", "numpy"):
        raise AlgorithmError(
            f"unsupported kernel mode {kernel!r}: cubeMasking always runs the "
            "vectorised kernel ('auto' and 'numpy' are accepted for compatibility)"
        )


# ----------------------------------------------------------------------
# The planner.
# ----------------------------------------------------------------------
def _enumerate_pairs(signatures: np.ndarray, want_partial: bool, chunk: int = 256) -> np.ndarray:
    """Deterministic candidate cube-pair order.

    Row-major ``(i, j)`` over the sorted cubes, keeping pairs where
    cube i dominates cube j (pointwise ``<=``) or — when partial
    containment is requested — dominates on at least one dimension,
    computed as a chunked signature broadcast.
    """
    count = len(signatures)
    if count == 0:
        return np.zeros((0, 2), dtype=np.int32)
    out: list[np.ndarray] = []
    for start in range(0, count, chunk):
        le = signatures[start : start + chunk, None, :] <= signatures[None, :, :]
        admissible = le.all(axis=2)
        if want_partial:
            admissible |= le.any(axis=2)
        hits = np.argwhere(admissible)
        hits[:, 0] += start
        out.append(hits)
    return np.ascontiguousarray(np.concatenate(out), dtype=np.int32)


def build_cubemask_state(
    space: ObservationSpace,
    targets,
    collect_partial_dimensions: bool = False,
) -> dict:
    """Plan one cubeMasking sweep for a fixed space + target set.

    Returns the kernel plan, the sorted cubes (``signatures``, their
    ``members`` rows delimited by ``cube_offsets``) and the admissible
    cube-pair order ``pairs``.  Pairs no target can use are filtered
    out here — measure-disjoint cubes on partial runs, off-diagonal
    pairs on complementarity-only runs — and the resulting pruning
    breakdown is precomputed under ``counts``, so every caller of the
    same plan reports the same statistics.  Partial-dimension masks
    (``collect_masks``) ride along up to
    :data:`~repro.core.kernels.DIM_MASK_LIMIT` dimensions.
    """
    lattice = CubeLattice(space)
    cubes = sorted(lattice.nodes)
    k = len(space.dimensions)
    signatures = np.asarray(cubes, dtype=np.int16).reshape(len(cubes), k)
    member_lists = [lattice.nodes[cube] for cube in cubes]
    cube_offsets = np.zeros(len(cubes) + 1, dtype=np.int64)
    if member_lists:
        cube_offsets[1:] = np.cumsum([len(members) for members in member_lists])
    members = (
        np.concatenate([np.asarray(m, dtype=np.int32) for m in member_lists])
        if member_lists
        else np.zeros(0, dtype=np.int32)
    )
    collect_masks = collect_partial_dimensions and k <= _kernels.DIM_MASK_LIMIT
    plan = _kernels.build_kernel_plan(space, collect_partial_dimensions=collect_masks)
    want_full = "full" in targets
    want_partial = "partial" in targets
    pairs = _enumerate_pairs(signatures, want_partial)

    counts = {key: 0 for key in STAT_KEYS}
    counts["cubes"] = len(cubes)
    sizes = np.diff(cube_offsets)
    index_a, index_b = pairs[:, 0], pairs[:, 1]
    la, lb = sizes[index_a], sizes[index_b]
    same = index_a == index_b
    keep = None
    if want_partial and k >= 1:
        # Cube-level measure prefilter: a pair survives when some member
        # measure-groups overlap (always true for same-cube pairs —
        # measure sets are non-empty, so complementarity is never lost).
        group_count = plan.group_overlap.shape[0]
        cube_group = np.zeros((len(cubes), group_count), dtype=np.int32)
        for position, member_list in enumerate(member_lists):
            rows = np.asarray(member_list, dtype=np.int64)
            cube_group[position, plan.assignment[rows]] = 1
        # keep[p] = any overlap between cube A's and cube B's groups,
        # as a per-pair row dot against the overlap-reachable groups —
        # no |cubes|² share matrix is ever materialised.
        reach = cube_group @ plan.group_overlap.astype(np.int32)
        keep = np.einsum("ij,ij->i", reach[index_a], cube_group[index_b]) > 0
        counts["pruned_cube_pairs"] = int((~keep).sum())
        counts["pruned_comparisons"] = int((la * lb)[~keep].sum())
    elif not want_full and len(pairs):
        # Complementarity only: it lives inside one cube, so
        # off-diagonal dominating pairs cannot produce anything.
        keep = same
    if keep is not None:
        pairs = np.ascontiguousarray(pairs[keep])
        la, lb, same = la[keep], lb[keep], same[keep]
    diagonal = np.where(same, la, 0)
    counts["cube_pairs"] = len(pairs)
    counts["instance_comparisons"] = int((la * lb - diagonal).sum())
    counts["pruned_comparisons"] += int(diagonal.sum())
    return dict(
        plan=plan,
        signatures=signatures,
        members=members,
        cube_offsets=cube_offsets,
        pairs=pairs,
        targets=frozenset(targets),
        k=k,
        dimensions=space.dimensions,
        collect_masks=collect_masks,
        counts=counts,
        uris=[record.uri for record in space.observations],
    )


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------
def score_batch(
    plan: _kernels.KernelPlan,
    rows_a,
    rows_b,
    containing: bool,
    targets,
    collect_masks: bool = False,
) -> _kernels.PairBlockResult:
    """Score one batch of member rows: the single kernel call site.

    ``containing`` states that every cube of ``rows_a`` dominates every
    cube of ``rows_b`` (full containment and complementarity are
    possible); it also gates the complementarity check, which is safe
    across cube boundaries because equal code vectors imply equal
    signatures — it can only fire between rows of one cube.
    """
    return _kernels.evaluate_pair_block(
        plan,
        rows_a,
        rows_b,
        containing=containing,
        same_cube=containing,
        want_full="full" in targets,
        want_compl="complementary" in targets,
        want_partial="partial" in targets,
        collect_partial_dimensions=collect_masks,
    )


def _cube_rows(members: np.ndarray, offsets: np.ndarray, cubes) -> np.ndarray:
    if len(cubes) == 1:
        return members[offsets[cubes[0]] : offsets[cubes[0] + 1]]
    return np.concatenate([members[offsets[c] : offsets[c + 1]] for c in cubes])


def score_pairs(state: dict, pair_rows, counts: dict | None = None) -> Iterator[_kernels.PairBlockResult]:
    """Execute a slice of a plan's cube-pair order, one block per batch.

    Contiguous same-cube-A runs of the (row-major) order are split into
    a *dominated* batch (full/complementarity possible) and a
    *sideways* batch (partial only), and each batch is one
    :func:`score_batch` call, so every member pair goes through the
    kernel's bitset pass exactly once.  ``counts`` (optional) receives
    the ``kernel_pairs`` / ``kernel_ns`` of the calls.
    """
    plan = state["plan"]
    signatures = state["signatures"]
    members = state["members"]
    offsets = state["cube_offsets"]
    targets = state["targets"]
    collect_masks = state["collect_masks"]
    pair_rows = np.asarray(pair_rows)
    if pair_rows.size == 0:
        return
    split = "full" in targets or "complementary" in targets
    column_a = pair_rows[:, 0]
    run_bounds = np.flatnonzero(np.diff(column_a)) + 1
    run_starts = np.concatenate(([0], run_bounds))
    for start, partners in zip(run_starts, np.split(pair_rows[:, 1], run_bounds)):
        index_a = int(column_a[start])
        rows_a = members[offsets[index_a] : offsets[index_a + 1]]
        if split:
            dominated = (signatures[index_a][None, :] <= signatures[partners]).all(axis=1)
            batches = ((partners[dominated], True), (partners[~dominated], False))
        else:
            batches = ((partners, False),)
        for batch, containing in batches:
            if len(batch) == 0:
                continue
            rows_b = _cube_rows(members, offsets, batch)
            started = time.perf_counter_ns()
            block = score_batch(plan, rows_a, rows_b, containing, targets, collect_masks)
            if counts is not None:
                counts["kernel_ns"] += time.perf_counter_ns() - started
                counts["kernel_pairs"] += len(rows_a) * len(rows_b)
            yield block


# ----------------------------------------------------------------------
# Callers: which rows to feed and where the blocks go.
# ----------------------------------------------------------------------
def emit_block(
    result: RelationshipSet,
    block: _kernels.PairBlockResult,
    uris,
    dimensions: tuple,
    space: ObservationSpace | None = None,
) -> None:
    """Map one columnar block to URI pairs in ``result``.

    Full/complementary pairs are few and materialise eagerly; partial
    pairs stay columnar (:meth:`RelationshipSet.add_partial_block`).
    Pass ``space`` when ``map_P`` is wanted but the block carries no
    dimension masks (buses wider than 64 dimensions): the entries are
    then decoded per pair.
    """
    k = len(dimensions)
    if block.full_a.size:
        result.full.update(
            (uris[a], uris[b]) for a, b in zip(block.full_a.tolist(), block.full_b.tolist())
        )
    for a, b in zip(block.compl_a.tolist(), block.compl_b.tolist()):
        result.add_complementary(uris[a], uris[b])
    if space is not None and block.partial_masks is None:
        for a, b, count in block.partial:
            result.add_partial(uris[a], uris[b], space.partial_dimensions(a, b), count / k)
        return
    masks = block.partial_masks
    result.add_partial_block(
        uris,
        block.partial_a,
        block.partial_b,
        block.partial_counts,
        k,
        masks,
        dimensions if masks is not None else None,
    )


def score_range(state: dict, start: int, stop: int, counts: dict | None = None) -> RelationshipSet:
    """Score ``state['pairs'][start:stop]`` into a relationship delta
    (one checkpointable unit of the materialisation runner)."""
    delta = RelationshipSet()
    for block in score_pairs(state, state["pairs"][start:stop], counts):
        emit_block(delta, block, state["uris"], state["dimensions"])
    return delta


def compute_cubemask(
    space: ObservationSpace,
    prefetch_children: bool = True,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = False,
    targets=None,
    stats: dict | None = None,
    kernel: str = "auto",
) -> RelationshipSet:
    """Run cubeMasking over an observation space.

    Parameters mirror :func:`repro.core.baseline.compute_baseline`;
    ``prefetch_children`` toggles the children-prefetching optimisation
    benchmarked in Figure 5(g) (see the module docstring).  Pass a dict
    as ``stats`` to receive the counters listed in :data:`STAT_KEYS`.
    ``kernel`` is validated by :func:`check_kernel` and otherwise
    ignored.
    """
    from repro.core.baseline import normalize_targets
    from repro.obs.tracing import trace

    check_kernel(kernel)
    targets = normalize_targets(targets, collect_partial)
    result = RelationshipSet()
    counts = {key: 0 for key in STAT_KEYS}
    if len(space) and targets:
        passes = [tuple(targets)] if prefetch_children else [(t,) for t in sorted(targets)]
        for pass_targets in passes:
            with trace("cubemask.plan", observations=len(space)):
                state = build_cubemask_state(space, pass_targets, collect_partial_dimensions)
            for key, value in state["counts"].items():
                counts[key] = value if key == "cubes" else counts[key] + value
            decode = space if collect_partial_dimensions and not state["collect_masks"] else None
            with trace("cubemask.sweep", cube_pairs=len(state["pairs"])):
                for block in score_pairs(state, state["pairs"], counts):
                    emit_block(result, block, state["uris"], state["dimensions"], decode)
    _flush_counts(counts)
    if stats is not None:
        stats.update(counts)
    return result
