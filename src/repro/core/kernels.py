"""Vectorised cube-pair kernels over level-indexed ancestor codes.

cubeMasking (Section 3.3, Algorithm 4) prunes the candidate space down
to cube pairs whose level signatures admit a relationship; the *inner*
loop then still has to test every member pair on every dimension.
Hierarchies are single-parent trees, so observation ``a`` contains
``b`` on dimension ``p`` iff *b's ancestor at a's level is a's code* —
one integer compare per pair and dimension.  This module evaluates a
whole cube pair as chunked broadcast compares over that one predicate:

* :func:`build_kernel_plan` gathers the per-observation code ids,
  levels and ancestor codes from per-distinct-code tables, plus the
  deduplicated measure-group tables, once per space,
* :func:`evaluate_pair_block` scores the member rows of cube A against
  cube B in bulk.  The partial/full pass stacks the per-dimension
  containment tests into one *bitset mask* per pair (bit ``p`` = cube
  A's row contains cube B's row on dimension ``p``), evaluated in
  cache-blocked cube-pair tiles; full containment is the all-ones
  mask, partial containment any other non-zero mask, and the
  containment count is the popcount of the mask — no per-pair
  re-testing of survivors.  Results come back *columnar* (index
  arrays, not Python tuples) so a million-pair block costs a handful
  of array slices rather than a million tuple allocations,
* :func:`measure_overlap_groups` is the single shared copy of the
  measure-overlap prefilter (previously duplicated between the
  baseline and cubeMasking), with the group-intersection table
  computed as one boolean matrix product instead of an O(g²) loop,
* :func:`publish_arrays` / :func:`attach_arrays` place a plan's arrays
  in a :mod:`multiprocessing.shared_memory` segment exactly once so
  worker processes attach zero-copy instead of unpickling the space.

Every kernel invocation also feeds module-level counters
(:func:`kernel_counters`) which the relationship service surfaces on
its ``/metrics`` endpoint.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory

import numpy as np

from repro.errors import AlgorithmError
from repro.core.space import ObservationSpace
from repro.rdf.terms import URIRef

__all__ = [
    "KernelPlan",
    "PairBlockResult",
    "build_kernel_plan",
    "evaluate_pair_block",
    "ensure_dim_mask_capacity",
    "measure_overlap_groups",
    "kernel_counters",
    "merge_counters",
    "reset_kernel_counters",
    "publish_arrays",
    "attach_arrays",
    "DEFAULT_TILE_PAIRS",
    "DIM_MASK_LIMIT",
]

#: Rows of cube A evaluated per broadcast chunk — bounds the temporary
#: ``(chunk, |B|)`` compare arrays.
DEFAULT_CHUNK = 512

#: Partial-dimension bitmasks (and the bitset partial pass) ride in a
#: single unsigned word, so masks are capped at 64 dimensions; wider
#: buses accumulate per-dimension counts instead (no dim masks).
DIM_MASK_LIMIT = 64


def _tile_pairs_default() -> int:
    import os

    try:
        value = int(os.environ.get("REPRO_KERNEL_TILE_PAIRS", ""))
        if value > 0:
            return value
    except ValueError:
        pass
    return 1 << 20


#: Pair budget of one cube-pair tile in the bitset partial pass: the
#: (A-chunk × B-tile) temporaries are sized to at most this many pairs
#: so the mask tile and the per-dimension compare stay L2-resident
#: (1M pairs ≈ 1 MiB of uint8 mask + one bool temporary per
#: dimension).  Tunable via ``REPRO_KERNEL_TILE_PAIRS`` or the
#: ``tile_pairs`` parameter; see docs/performance.md for the sweep.
DEFAULT_TILE_PAIRS = _tile_pairs_default()


def ensure_dim_mask_capacity(dimension_count: int) -> None:
    """Reject buses too wide for single-word partial-dimension masks.

    Raised at *plan-build* time (``build_kernel_plan(...,
    collect_partial_dimensions=True)``) so a too-wide bus fails before
    any pair block is evaluated, not mid-compute.
    """
    if dimension_count > DIM_MASK_LIMIT:
        raise AlgorithmError(
            "partial-dimension bitmasks support at most "
            f"{DIM_MASK_LIMIT} dimensions; this bus has {dimension_count} "
            "— evaluate without masks and decode map_P per pair"
        )


if hasattr(np, "bitwise_count"):

    def _popcount(values: np.ndarray) -> np.ndarray:
        return np.bitwise_count(values)

else:  # numpy < 2.0
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(values: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(values).reshape(-1)
        as_bytes = flat.view(np.uint8).reshape(flat.shape[0], flat.dtype.itemsize)
        return _POPCOUNT8[as_bytes].sum(axis=1).reshape(values.shape)


def _mask_dtype(dimension_count: int):
    """Narrowest unsigned word holding one bit per dimension."""
    if dimension_count <= 8:
        return np.uint8
    if dimension_count <= 16:
        return np.uint16
    if dimension_count <= 32:
        return np.uint32
    return np.uint64


# ----------------------------------------------------------------------
# Kernel counters (surfaced through the service /metrics endpoint and
# mirrored as first-class series in the repro.obs metrics registry).
# ----------------------------------------------------------------------
_COUNTER_LOCK = threading.Lock()
_COUNTERS = {"kernel_calls": 0, "kernel_pairs": 0, "kernel_ns": 0}


_REGISTRY_COUNTERS = None


def _registry_counters():
    global _REGISTRY_COUNTERS
    if _REGISTRY_COUNTERS is None:
        from repro.obs.registry import get_registry

        registry = get_registry()
        _REGISTRY_COUNTERS = (
            registry.counter(
                "repro_kernel_calls_total", "Vectorised cube-pair kernel invocations."
            ),
            registry.counter(
                "repro_kernel_pairs_total",
                "Observation pairs scored by the vectorised kernel.",
            ),
            registry.counter(
                "repro_kernel_ns_total",
                "Nanoseconds spent inside the vectorised kernel.",
            ),
        )
    return _REGISTRY_COUNTERS


#: Registry values already pushed; the delta to _COUNTERS is what a
#: flush publishes.  Batching keeps the per-block hot path down to the
#: single _COUNTER_LOCK acquisition it always had.
_PUSHED = {"kernel_calls": 0, "kernel_pairs": 0, "kernel_ns": 0}
_FLUSH_EVERY = 512


def _record(ns: int, pairs: int) -> None:
    with _COUNTER_LOCK:
        _COUNTERS["kernel_calls"] += 1
        _COUNTERS["kernel_pairs"] += pairs
        _COUNTERS["kernel_ns"] += ns
        due = _COUNTERS["kernel_calls"] - _PUSHED["kernel_calls"] >= _FLUSH_EVERY
    if due:
        flush_registry_counters()


def flush_registry_counters() -> None:
    """Publish accumulated kernel counters into the metrics registry.

    Runs every :data:`_FLUSH_EVERY` kernel calls and at the end of
    each cubeMasking compute, so a mid-compute scrape lags by at most
    one batch.
    """
    counters = _registry_counters()
    with _COUNTER_LOCK:
        deltas = {key: _COUNTERS[key] - _PUSHED[key] for key in _COUNTERS}
        _PUSHED.update(_COUNTERS)
    for counter, key in zip(counters, ("kernel_calls", "kernel_pairs", "kernel_ns")):
        if deltas[key]:
            counter.inc(deltas[key])


def kernel_counters() -> dict:
    """Snapshot of this process's cumulative kernel usage."""
    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def merge_counters(delta: dict) -> None:
    """Fold another process's kernel-counter delta into this one.

    The parallel fan-out runs the kernel inside worker processes whose
    module counters (and registry series) die with them; each unit
    result carries the worker's counter delta and the parent merges it
    here, so ``kernel_pairs``/``kernel_ns`` stats and the
    ``repro_kernel_*`` metric families stay path-independent — a
    worker-scored pair counts exactly like a sequentially-scored one.
    """
    calls = int(delta.get("kernel_calls", 0))
    pairs = int(delta.get("kernel_pairs", 0))
    ns = int(delta.get("kernel_ns", 0))
    if not (calls or pairs or ns):
        return
    with _COUNTER_LOCK:
        _COUNTERS["kernel_calls"] += calls
        _COUNTERS["kernel_pairs"] += pairs
        _COUNTERS["kernel_ns"] += ns
    flush_registry_counters()


def reset_kernel_counters() -> None:
    with _COUNTER_LOCK:
        for key in _COUNTERS:
            _COUNTERS[key] = 0
            _PUSHED[key] = 0


# ----------------------------------------------------------------------
# The shared measure-overlap prefilter.
# ----------------------------------------------------------------------
def measure_overlap_groups(space: ObservationSpace) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated measure groups: ``(assignment, overlap)``.

    ``assignment[i]`` is the group id of observation ``i``'s measure
    set; ``overlap[g, h]`` is True when groups ``g`` and ``h`` share a
    measure.  Distinct measure sets are deduplicated first — the
    "simple lookup" of the paper — and the g×g intersection table is a
    single boolean matrix product over the group-membership matrix
    rather than a pairwise ``isdisjoint`` loop.
    """
    unique: dict[frozenset, int] = {}
    assignment = np.empty(len(space), dtype=np.int32)
    for record in space.observations:
        assignment[record.index] = unique.setdefault(record.measures, len(unique))
    columns = {
        measure: position
        for position, measure in enumerate(
            sorted({m for group in unique for m in group}, key=str)
        )
    }
    membership = np.zeros((len(unique), len(columns)), dtype=np.uint8)
    for group, group_id in unique.items():
        for measure in group:
            membership[group_id, columns[measure]] = 1
    overlap = (membership @ membership.T) > 0
    return assignment, overlap


# ----------------------------------------------------------------------
# The kernel plan: every array the bulk evaluation needs.
# ----------------------------------------------------------------------
class KernelPlan:
    """Per-space arrays for vectorised cube-pair evaluation.

    ``code_ids``
        ``(n, k)`` ``int32`` — each observation's dimension values as
        dense per-dimension integer ids.
    ``code_keys``
        ``(n,)`` ``int32`` — dense ids of whole code vectors: two rows
        are complementarity candidates iff their keys are equal.
    ``assignment`` / ``group_overlap``
        The measure-overlap prefilter of
        :func:`measure_overlap_groups`.
    ``levels`` / ``anc_codes`` / ``level_offsets``
        The level-indexed ancestor-code tables.  ``anc_codes`` stores
        each observation's per-level ancestor code ids (``-1`` below
        the observation's own level; dimension ``p`` occupies the
        columns from ``level_offsets[p]``), so ``a`` contains ``b`` on
        dimension ``p`` iff
        ``anc_codes[b, level_offsets[p] + levels[a, p]] == code_ids[a, p]``.
    """

    __slots__ = (
        "dimensions",
        "k",
        "code_ids",
        "code_keys",
        "assignment",
        "group_overlap",
        "levels",
        "anc_codes",
        "level_offsets",
    )

    def __init__(
        self,
        dimensions: tuple[URIRef, ...],
        code_ids: np.ndarray,
        code_keys: np.ndarray,
        assignment: np.ndarray,
        group_overlap: np.ndarray,
        levels: np.ndarray,
        anc_codes: np.ndarray,
        level_offsets: tuple[int, ...],
    ):
        self.dimensions = dimensions
        self.k = len(dimensions)
        self.code_ids = code_ids
        self.code_keys = code_keys
        self.assignment = assignment
        self.group_overlap = group_overlap
        self.levels = levels
        self.anc_codes = anc_codes
        self.level_offsets = level_offsets

    @property
    def n(self) -> int:
        return self.code_ids.shape[0]

    def __repr__(self) -> str:
        return f"KernelPlan(rows={self.n}, dimensions={self.k})"


def build_kernel_plan(
    space: ObservationSpace,
    *,
    collect_partial_dimensions: bool = False,
) -> KernelPlan:
    """Assemble a :class:`KernelPlan` for ``space``.

    Each dimension's distinct codes are resolved once into a table row
    (code id, level, ancestor codes from one parent-chain walk); every
    observation row is then a numpy gather of its code's table row, so
    the Python work is one dict lookup per observation and dimension.

    Pass ``collect_partial_dimensions=True`` when the plan will be
    asked for partial-dimension bitmasks: buses wider than
    :data:`DIM_MASK_LIMIT` dimensions are rejected here, at plan-build
    time, instead of mid-block.
    """
    if collect_partial_dimensions:
        ensure_dim_mask_capacity(len(space.dimensions))
    n = len(space)
    dimensions = space.dimensions
    widths = [space.hierarchies[dimension].max_level + 1 for dimension in dimensions]
    level_offsets = tuple(int(offset) for offset in np.cumsum([0] + widths[:-1]))
    code_ids = np.zeros((n, len(dimensions)), dtype=np.int32)
    levels = np.zeros((n, len(dimensions)), dtype=np.int32)
    anc_codes = np.full((n, sum(widths)), -1, dtype=np.int32)
    columns = list(zip(*(record.codes for record in space.observations))) or [()] * len(dimensions)
    for position, (dimension, column) in enumerate(zip(dimensions, columns)):
        hierarchy = space.hierarchies[dimension]
        distinct: dict = {}
        inverse = np.fromiter(
            (distinct.setdefault(code, len(distinct)) for code in column),
            dtype=np.intp,
            count=n,
        )
        ids: dict = {}
        table = np.full((len(distinct), widths[position]), -1, dtype=np.int32)
        table_levels = np.zeros(len(distinct), dtype=np.int32)
        for row, code in enumerate(distinct):
            depth = table_levels[row] = hierarchy.level(code)
            node = code
            while node is not None:
                table[row, depth] = ids.setdefault(node, len(ids))
                node = hierarchy.parent(node)
                depth -= 1
        levels[:, position] = table_levels[inverse]
        code_ids[:, position] = table[np.arange(len(distinct)), table_levels][inverse]
        base = level_offsets[position]
        anc_codes[:, base : base + widths[position]] = table[inverse]
    if n:
        _, inverse = np.unique(code_ids, axis=0, return_inverse=True)
        code_keys = np.ascontiguousarray(inverse.reshape(n), dtype=np.int32)
    else:
        code_keys = np.zeros(0, dtype=np.int32)
    assignment, group_overlap = measure_overlap_groups(space)
    return KernelPlan(
        dimensions=dimensions,
        code_ids=code_ids,
        code_keys=code_keys,
        assignment=assignment,
        group_overlap=group_overlap,
        levels=levels,
        anc_codes=anc_codes,
        level_offsets=level_offsets,
    )


# ----------------------------------------------------------------------
# Bulk evaluation of one cube pair.
# ----------------------------------------------------------------------
_EMPTY_IDX = np.zeros(0, dtype=np.int64)
_EMPTY_COUNTS = np.zeros(0, dtype=np.int32)
_EMPTY_MASKS = np.zeros(0, dtype=np.uint64)


def _cat(parts: list, empty: np.ndarray) -> np.ndarray:
    if not parts:
        return empty
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


class PairBlockResult:
    """Columnar index-level output of one cube-pair evaluation.

    The kernel returns *arrays*: ``full_a``/``full_b`` and
    ``compl_a``/``compl_b`` are aligned observation-index vectors;
    ``partial_a``/``partial_b``/``partial_counts`` describe the
    partial pairs (``partial_counts[i]`` containing dimensions, the
    degree is ``count / k``); ``partial_masks`` (when requested)
    aligns with them and carries a bitmask whose bit ``p`` marks
    containment on dimension ``p`` of the bus, ``None`` otherwise.

    The ``full`` / ``complementary`` / ``partial`` /
    ``partial_dim_masks`` properties materialise the historical
    tuple-list forms on demand for small-block consumers (incremental
    updates, tests); bulk consumers use the arrays directly — that is
    the difference between a million result rows costing a few array
    concatenations and costing a million tuple allocations.
    """

    __slots__ = (
        "full_a",
        "full_b",
        "compl_a",
        "compl_b",
        "partial_a",
        "partial_b",
        "partial_counts",
        "partial_masks",
        "_full_list",
        "_compl_list",
        "_partial_list",
        "_mask_list",
    )

    def __init__(
        self,
        *,
        full_a: np.ndarray = _EMPTY_IDX,
        full_b: np.ndarray = _EMPTY_IDX,
        compl_a: np.ndarray = _EMPTY_IDX,
        compl_b: np.ndarray = _EMPTY_IDX,
        partial_a: np.ndarray = _EMPTY_IDX,
        partial_b: np.ndarray = _EMPTY_IDX,
        partial_counts: np.ndarray = _EMPTY_COUNTS,
        partial_masks: np.ndarray | None = None,
    ):
        self.full_a = full_a
        self.full_b = full_b
        self.compl_a = compl_a
        self.compl_b = compl_b
        self.partial_a = partial_a
        self.partial_b = partial_b
        self.partial_counts = partial_counts
        self.partial_masks = partial_masks
        self._full_list = None
        self._compl_list = None
        self._partial_list = None
        self._mask_list = None

    @property
    def full(self) -> list[tuple[int, int]]:
        if self._full_list is None:
            self._full_list = list(zip(self.full_a.tolist(), self.full_b.tolist()))
        return self._full_list

    @property
    def complementary(self) -> list[tuple[int, int]]:
        if self._compl_list is None:
            self._compl_list = list(zip(self.compl_a.tolist(), self.compl_b.tolist()))
        return self._compl_list

    @property
    def partial(self) -> list[tuple[int, int, int]]:
        if self._partial_list is None:
            self._partial_list = list(
                zip(
                    self.partial_a.tolist(),
                    self.partial_b.tolist(),
                    self.partial_counts.tolist(),
                )
            )
        return self._partial_list

    @property
    def partial_dim_masks(self) -> list[int] | None:
        if self.partial_masks is None:
            return None
        if self._mask_list is None:
            self._mask_list = self.partial_masks.tolist()
        return self._mask_list

    def __repr__(self) -> str:
        return (
            f"PairBlockResult(full={self.full_a.size}, "
            f"complementary={self.compl_a.size}, partial={self.partial_a.size})"
        )


def evaluate_pair_block(
    plan: KernelPlan,
    rows_a,
    rows_b,
    *,
    containing: bool = True,
    same_cube: bool = False,
    want_full: bool = True,
    want_compl: bool = True,
    want_partial: bool = True,
    collect_partial_dimensions: bool = False,
    chunk: int = DEFAULT_CHUNK,
    tile_pairs: int | None = None,
) -> PairBlockResult:
    """Score the member rows of cube A against cube B in bulk.

    The vectorised form of Algorithm 4's inner loop.  For the partial
    pass the per-dimension containment tests over the level-indexed
    ancestor-code tables are ORed into one *bitset* per pair (bit ``p``
    = containment on dimension ``p``, narrowest unsigned dtype that
    holds ``k`` bits): ``mask == (1 << k) - 1`` is full containment,
    any other nonzero mask is partial, and the containment count is the
    mask's popcount — taken only on the selected pairs, so partial
    candidates are never re-tested dimension-wise.  The pass walks B
    in cache-blocked tiles of at most ``tile_pairs`` pairs per
    (A-chunk x B-tile) so the per-dimension broadcast temporaries stay
    L2-resident.  Results come back as index *arrays* (see
    :class:`PairBlockResult`) — self pairs excluded, full and partial
    containment gated on the measure-overlap mask, complementarity on
    equal code vectors with ``a < b``.

    ``containing`` states whether cube A's signature dominates cube
    B's (full containment and complementarity are impossible
    otherwise, so the work is skipped); ``same_cube`` gates the
    complementarity check, which only lives inside one cube.
    """
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    la, lb = len(rows_a), len(rows_b)
    k = plan.k
    collect_masks = want_partial and collect_partial_dimensions
    if collect_masks:
        ensure_dim_mask_capacity(k)
    if la == 0 or lb == 0:
        return PairBlockResult(partial_masks=_EMPTY_MASKS if collect_masks else None)
    started = time.perf_counter_ns()

    check_full = want_full and containing
    check_compl = want_compl and containing and same_cube
    budget = max(1, int(tile_pairs)) if tile_pairs else DEFAULT_TILE_PAIRS

    need_codes = check_full or want_partial
    anc_b = plan.anc_codes[rows_b] if need_codes else None
    col_base = np.asarray(plan.level_offsets, dtype=np.int32)
    keys_b = plan.code_keys[rows_b] if check_compl else None
    assign_b = plan.assignment[rows_b]

    # A-chunk / B-tile sizing.  The partial pass tiles B, so its A
    # chunk only shrinks with the tile budget; the sifting and
    # complementarity branches broadcast across the whole B side, so
    # their A chunk shrinks with lb instead (~4M pairs per chunk).
    if want_partial:
        b_tile = max(1, min(lb, budget))
        ca_max = max(1, min(chunk, max(1, budget // b_tile)))
        if check_compl:
            ca_max = max(1, min(ca_max, (1 << 22) // max(lb, 1)))
    else:
        b_tile = lb
        ca_max = max(1, min(chunk, (1 << 22) // max(lb, 1)))

    mdtype = _mask_dtype(k) if k <= DIM_MASK_LIMIT else None
    full_value = mdtype((1 << k) - 1) if mdtype is not None else None

    full_a_parts: list[np.ndarray] = []
    full_b_parts: list[np.ndarray] = []
    compl_a_parts: list[np.ndarray] = []
    compl_b_parts: list[np.ndarray] = []
    part_a_parts: list[np.ndarray] = []
    part_b_parts: list[np.ndarray] = []
    part_c_parts: list[np.ndarray] = []
    part_m_parts: list[np.ndarray] = []

    for start in range(0, la, ca_max):
        rows = rows_a[start : start + ca_max]
        ca = len(rows)
        assign_a = plan.assignment[rows]
        if need_codes:
            codes_a = plan.code_ids[rows]
            cols_a = plan.levels[rows] + col_base[None, :]

        def dim_contains(position: int, anc: np.ndarray) -> np.ndarray:
            """(ca, len(anc)) containment matrix of one dimension."""
            col = cols_a[:, position]
            first = col[0]
            if (col == first).all():
                # All A rows sit on the same level (always true when
                # rows_a is one cube): one anc column, pure broadcast
                # compare — no gather.
                return anc[:, first][None, :] == codes_a[:, position][:, None]
            return (anc[:, col] == codes_a[:, position]).T

        if want_partial:
            for bstart in range(0, lb, b_tile):
                bstop = min(lb, bstart + b_tile)
                rows_bt = rows_b[bstart:bstop]
                anc_bt = anc_b[bstart:bstop]
                valid = plan.group_overlap[
                    assign_a[:, None], assign_b[bstart:bstop][None, :]
                ]
                valid &= rows[:, None] != rows_bt[None, :]

                if mdtype is not None:
                    # Bitset pass: one mask accumulates every dimension;
                    # classification and the containment counts all fall
                    # out of it.
                    mask = np.zeros((ca, bstop - bstart), dtype=mdtype)
                    for position in range(k):
                        contains = dim_contains(position, anc_bt)
                        mask |= contains.astype(mdtype) << mdtype(position)
                    if check_full:
                        sel = mask == full_value
                        sel &= valid
                        ia, ib = np.nonzero(sel)
                        if ia.size:
                            full_a_parts.append(rows[ia])
                            full_b_parts.append(rows_bt[ib])
                    sel = mask != 0
                    sel &= mask != full_value
                    sel &= valid
                    ia, ib = np.nonzero(sel)
                    if ia.size:
                        chosen = mask[ia, ib]
                        part_a_parts.append(rows[ia])
                        part_b_parts.append(rows_bt[ib])
                        part_c_parts.append(
                            _popcount(chosen).astype(np.int32, copy=False)
                        )
                        if collect_masks:
                            part_m_parts.append(chosen.astype(np.uint64))
                else:
                    # Bus wider than 64 dimensions: bitsets don't fit a
                    # word, accumulate counts instead (masks were
                    # rejected up front by ensure_dim_mask_capacity).
                    counts = np.zeros((ca, bstop - bstart), dtype=np.int32)
                    for position in range(k):
                        counts += dim_contains(position, anc_bt)
                    if check_full:
                        ia, ib = np.nonzero((counts == k) & valid)
                        if ia.size:
                            full_a_parts.append(rows[ia])
                            full_b_parts.append(rows_bt[ib])
                    ia, ib = np.nonzero((counts > 0) & (counts < k) & valid)
                    if ia.size:
                        part_a_parts.append(rows[ia])
                        part_b_parts.append(rows_bt[ib])
                        part_c_parts.append(counts[ia, ib])
        elif check_full:
            # No counts needed -> dimension-ordered sifting: evaluate
            # dimension 0 over the whole block, then re-test only the
            # survivors on each further dimension (most pairs die on
            # the first dimension).
            contains = plan.group_overlap[assign_a[:, None], assign_b[None, :]]
            contains &= rows[:, None] != rows_b[None, :]
            if k:
                contains &= dim_contains(0, anc_b)
            idx_a, idx_b = np.nonzero(contains)
            for position in range(1, k):
                if idx_a.size == 0:
                    break
                keep = anc_b[idx_b, cols_a[idx_a, position]] == codes_a[idx_a, position]
                idx_a, idx_b = idx_a[keep], idx_b[keep]
            if idx_a.size:
                full_a_parts.append(rows[idx_a])
                full_b_parts.append(rows_b[idx_b])
        if check_compl:
            equal = plan.code_keys[rows][:, None] == keys_b[None, :]
            equal &= rows[:, None] < rows_b[None, :]
            ia, ib = np.nonzero(equal)
            if ia.size:
                compl_a_parts.append(rows[ia])
                compl_b_parts.append(rows_b[ib])
    _record(time.perf_counter_ns() - started, la * lb)
    return PairBlockResult(
        full_a=_cat(full_a_parts, _EMPTY_IDX),
        full_b=_cat(full_b_parts, _EMPTY_IDX),
        compl_a=_cat(compl_a_parts, _EMPTY_IDX),
        compl_b=_cat(compl_b_parts, _EMPTY_IDX),
        partial_a=_cat(part_a_parts, _EMPTY_IDX),
        partial_b=_cat(part_b_parts, _EMPTY_IDX),
        partial_counts=_cat(part_c_parts, _EMPTY_COUNTS),
        partial_masks=_cat(part_m_parts, _EMPTY_MASKS) if collect_masks else None,
    )


def decode_dim_mask(plan_dimensions: tuple[URIRef, ...], mask: int) -> frozenset[URIRef]:
    """The ``map_P`` entry encoded by one partial-dimension bitmask."""
    return frozenset(
        dimension
        for position, dimension in enumerate(plan_dimensions)
        if mask >> position & 1
    )


# ----------------------------------------------------------------------
# Zero-copy shared-memory publication of plan arrays.
# ----------------------------------------------------------------------
_ALIGNMENT = 64

Layout = dict[str, tuple[int, tuple[int, ...], str]]


def publish_arrays(arrays: dict[str, np.ndarray]) -> tuple[shared_memory.SharedMemory, Layout]:
    """Copy ``arrays`` into one new shared-memory segment.

    Returns the segment (the caller owns its lifetime: ``close()`` and
    ``unlink()`` when every consumer is done) and a small layout dict
    ``{name: (offset, shape, dtype)}`` — the only thing a worker needs
    besides the segment name, so the fan-out payload is O(metadata)
    regardless of how many observations the arrays cover.
    """
    items: list[tuple[str, np.ndarray]] = [
        (name, np.ascontiguousarray(array)) for name, array in arrays.items()
    ]
    layout: Layout = {}
    offset = 0
    for name, array in items:
        layout[name] = (offset, tuple(array.shape), array.dtype.str)
        offset += -(-array.nbytes // _ALIGNMENT) * _ALIGNMENT
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, array in items:
        start = layout[name][0]
        destination = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf, offset=start)
        destination[...] = array
        del destination  # release the buffer export so close() can succeed
    from repro.obs.registry import get_registry

    registry = get_registry()
    registry.counter(
        "repro_parallel_shm_publishes_total",
        "Shared-memory kernel-plan segments published for worker fan-out.",
    ).inc()
    registry.counter(
        "repro_parallel_shm_bytes_total",
        "Bytes published into shared-memory fan-out segments.",
    ).inc(segment.size)
    return segment, layout


def attach_arrays(name: str, layout: Layout) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach to a published segment and map its arrays zero-copy.

    The returned arrays are read-only views over the shared buffer.

    Lifecycle: only the publisher calls ``unlink()``.  Python < 3.13
    registers attached segments with the resource tracker too, but
    fork-started pool workers share the parent's tracker process, so
    the duplicate registration collapses into the publisher's single
    entry and the publisher's ``unlink()`` retires it cleanly.  (Do
    *not* ``resource_tracker.unregister`` here — with a shared
    tracker that would erase the publisher's entry and make the final
    ``unlink()`` log a spurious KeyError.)  If the publisher crashes
    before unlinking, the tracker unlinks the leaked segment at
    shutdown, which is exactly the crash cleanup we want.
    """
    segment = shared_memory.SharedMemory(name=name)
    views: dict[str, np.ndarray] = {}
    for array_name, (offset, shape, dtype) in layout.items():
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        view.flags.writeable = False
        views[array_name] = view
    return segment, views
