"""Relationship result containers and recall metrics.

:class:`RelationshipSet` holds the three output sets of every
algorithm — ``S_F`` (full containment), ``S_P`` (partial containment)
and ``S_C`` (complementarity) — as pairs of observation URIs, plus the
optional ``map_P`` of partial-containment dimensions and the OCM degree
of each partial pair.

Containment pairs are directed ``(container, contained)``;
complementarity pairs are stored canonically (lexicographically
ordered) because the relation is symmetric.

Partial-containment results can arrive *columnar*: the vectorised
kernel emits index arrays (see
:class:`repro.core.kernels.PairBlockResult`), and
:meth:`RelationshipSet.add_partial_block` queues them as-is — a few
array references instead of millions of tuple/set/dict inserts.  The
``partial`` / ``partial_map`` / ``degrees`` views drain the queue on
first access, so consumers see exactly the classic set/dict API while
the compute hot path stays allocation-free.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.rdf.terms import URIRef

__all__ = ["RelationshipSet", "RelationshipDelta", "Recall"]

Pair = tuple[URIRef, URIRef]


def canonical(a: URIRef, b: URIRef) -> Pair:
    """Order a symmetric pair deterministically."""
    return (a, b) if str(a) <= str(b) else (b, a)


def _length(values) -> int:
    try:
        return len(values)
    except TypeError:
        return int(values.size)


def _tolist(values) -> list:
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(values)


@dataclass
class Recall:
    """Per-relationship recall of a computed result against ground truth."""

    full: float
    partial: float
    complementary: float

    @property
    def overall(self) -> float:
        return (self.full + self.partial + self.complementary) / 3


@dataclass
class RelationshipDelta:
    """The edge-level difference produced by one incremental write.

    :func:`~repro.core.api.update_relationships` and
    :func:`~repro.core.api.remove_observations` report the pairs they
    added to / purged from each relation so downstream consumers (the
    relationship service's :class:`~repro.service.index.RelationshipIndex`,
    cache invalidation...) can apply the change in O(|delta|) instead of
    rebuilding from the full :class:`RelationshipSet`.

    ``partial_map`` / ``degrees`` carry the metadata of the *added*
    partial pairs only; removed pairs need no metadata to retract.
    """

    added_full: set[Pair] = field(default_factory=set)
    added_partial: set[Pair] = field(default_factory=set)
    added_complementary: set[Pair] = field(default_factory=set)
    removed_full: set[Pair] = field(default_factory=set)
    removed_partial: set[Pair] = field(default_factory=set)
    removed_complementary: set[Pair] = field(default_factory=set)
    partial_map: dict[Pair, frozenset[URIRef]] = field(default_factory=dict)
    degrees: dict[Pair, float] = field(default_factory=dict)

    def total_added(self) -> int:
        return len(self.added_full) + len(self.added_partial) + len(self.added_complementary)

    def total_removed(self) -> int:
        return len(self.removed_full) + len(self.removed_partial) + len(self.removed_complementary)

    def __bool__(self) -> bool:
        return (self.total_added() + self.total_removed()) > 0

    def touched(self) -> set[URIRef]:
        """Every observation URI appearing in an added or removed pair."""
        uris: set[URIRef] = set()
        for pairs in (
            self.added_full,
            self.added_partial,
            self.added_complementary,
            self.removed_full,
            self.removed_partial,
            self.removed_complementary,
        ):
            for a, b in pairs:
                uris.add(a)
                uris.add(b)
        return uris


class RelationshipSet:
    """The S_F / S_P / S_C output of a relationship computation."""

    __slots__ = (
        "full",
        "complementary",
        "_partial",
        "_partial_map",
        "_degrees",
        "_pending",
        "_pending_lock",
    )

    def __init__(
        self,
        full: Iterable[Pair] = (),
        partial: Iterable[Pair] = (),
        complementary: Iterable[Pair] = (),
        partial_map: Mapping[Pair, frozenset[URIRef]] | None = None,
        degrees: Mapping[Pair, float] | None = None,
    ):
        self.full: set[Pair] = set(full)
        self._partial: set[Pair] = set(partial)
        self.complementary: set[Pair] = {canonical(a, b) for a, b in complementary}
        self._partial_map: dict[Pair, frozenset[URIRef]] = dict(partial_map or {})
        self._degrees: dict[Pair, float] = dict(degrees or {})
        self._pending: list[tuple] = []
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Columnar partial blocks (the kernel hot path).
    # ------------------------------------------------------------------
    def add_partial_block(
        self,
        uris: Sequence[URIRef],
        a_idx,
        b_idx,
        counts,
        dimension_count: int,
        masks=None,
        dimensions: tuple[URIRef, ...] | None = None,
    ) -> None:
        """Queue one columnar partial-result block.

        ``a_idx`` / ``b_idx`` index into ``uris`` (any array or
        sequence exposing ``tolist``/iteration), ``counts`` aligns with
        them (containing-dimension counts; the degree is ``count /
        dimension_count``), and ``masks`` (optional, with
        ``dimensions``) carries the per-dimension bitmasks feeding
        ``map_P``.  O(1): nothing is materialised until a partial view
        is first read.
        """
        if _length(a_idx) == 0:
            return
        with self._pending_lock:
            self._pending.append(
                (uris, a_idx, b_idx, counts, dimension_count, masks, dimensions)
            )

    def _drain(self) -> None:
        """Materialise every queued columnar block into the set views."""
        if not self._pending:
            return
        with self._pending_lock:
            pending = self._pending
            if not pending:
                return
            self._pending = []
            partial = self._partial
            partial_map = self._partial_map
            degrees = self._degrees
            # A drain can carry millions of pairs but only a handful of
            # distinct degrees and map_P sets: each is built once and
            # shared by every pair that has it.
            shared_degrees: dict[int, list[float]] = {}
            decoded: dict[tuple[tuple[URIRef, ...], int], frozenset[URIRef]] = {}
            for uris, a_idx, b_idx, counts, k, masks, dimensions in pending:
                # Bulk set/dict updates: one block can carry millions of
                # pairs, so the per-pair method-call overhead is worth
                # skipping.
                pairs = [
                    (uris[ai], uris[bi])
                    for ai, bi in zip(_tolist(a_idx), _tolist(b_idx))
                ]
                partial.update(pairs)
                # True division, not multiply-by-inverse: the degree
                # must be bit-identical to the python paths' count / k.
                if k:
                    by_count = shared_degrees.get(k)
                    if by_count is None:
                        by_count = shared_degrees[k] = [count / k for count in range(k + 1)]
                    degrees.update(zip(pairs, map(by_count.__getitem__, _tolist(counts))))
                if masks is not None:

                    def _dims(mask) -> frozenset[URIRef]:
                        dims = decoded.get((dimensions, mask))
                        if dims is None:
                            dims = decoded[dimensions, mask] = frozenset(
                                dimension
                                for position, dimension in enumerate(dimensions)
                                if (mask >> position) & 1
                            )
                        return dims

                    partial_map.update(zip(pairs, map(_dims, _tolist(masks))))

    @property
    def partial(self) -> set[Pair]:
        self._drain()
        return self._partial

    @partial.setter
    def partial(self, value: Iterable[Pair]) -> None:
        self._drain()
        self._partial = value if isinstance(value, set) else set(value)

    @property
    def partial_map(self) -> dict[Pair, frozenset[URIRef]]:
        self._drain()
        return self._partial_map

    @partial_map.setter
    def partial_map(self, value: Mapping[Pair, frozenset[URIRef]]) -> None:
        self._drain()
        self._partial_map = dict(value)

    @property
    def degrees(self) -> dict[Pair, float]:
        self._drain()
        return self._degrees

    @degrees.setter
    def degrees(self, value: Mapping[Pair, float]) -> None:
        self._drain()
        self._degrees = dict(value)

    # ------------------------------------------------------------------
    def __getstate__(self):
        self._drain()
        return (
            self.full,
            self._partial,
            self.complementary,
            self._partial_map,
            self._degrees,
        )

    def __setstate__(self, state) -> None:
        self.full, self._partial, self.complementary, self._partial_map, self._degrees = state
        self._pending = []
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------
    def add_full(self, container: URIRef, contained: URIRef) -> None:
        self.full.add((container, contained))

    def add_partial(
        self,
        container: URIRef,
        contained: URIRef,
        dimensions: frozenset[URIRef] | None = None,
        degree: float | None = None,
    ) -> None:
        pair = (container, contained)
        self.partial.add(pair)
        if dimensions is not None:
            self._partial_map[pair] = dimensions
        if degree is not None:
            self._degrees[pair] = degree

    def add_complementary(self, a: URIRef, b: URIRef) -> None:
        self.complementary.add(canonical(a, b))

    def merge(self, other: "RelationshipSet") -> None:
        """In-place union (used by the clustering method's per-cluster runs).

        Queued columnar blocks are *shared*, not drained: merging is
        O(sets + block references), and re-merging the same source is
        idempotent because the drained pairs deduplicate in the set.
        """
        self.full |= other.full
        self.complementary |= other.complementary
        with other._pending_lock:
            pending = list(other._pending)
        if pending:
            with self._pending_lock:
                self._pending.extend(pending)
        self._partial |= other._partial
        self._partial_map.update(other._partial_map)
        self._degrees.update(other._degrees)

    def apply_delta(self, delta: "RelationshipDelta") -> None:
        """Apply one incremental write in O(|delta|).

        The set-level counterpart of
        :meth:`repro.service.index.RelationshipIndex.apply_delta`;
        removals are applied first, then additions (with the metadata
        of the added partial pairs), so replaying a delta log lands on
        the same state the writer observed.
        """
        for pair in delta.removed_full:
            self.full.discard(pair)
        for pair in delta.removed_partial:
            self.partial.discard(pair)
            self.partial_map.pop(pair, None)
            self.degrees.pop(pair, None)
        for a, b in delta.removed_complementary:
            self.complementary.discard(canonical(a, b))
        self.full |= delta.added_full
        for pair in delta.added_partial:
            self.partial.add(pair)
            dims = delta.partial_map.get(pair)
            if dims:
                self.partial_map[pair] = dims
            degree = delta.degrees.get(pair)
            if degree is not None:
                self.degrees[pair] = degree
        for a, b in delta.added_complementary:
            self.complementary.add(canonical(a, b))

    # ------------------------------------------------------------------
    def is_complementary(self, a: URIRef, b: URIRef) -> bool:
        return canonical(a, b) in self.complementary

    def degree(self, container: URIRef, contained: URIRef) -> float | None:
        return self.degrees.get((container, contained))

    def partial_dimensions(self, container: URIRef, contained: URIRef) -> frozenset[URIRef]:
        return self.partial_map.get((container, contained), frozenset())

    def total(self) -> int:
        return len(self.full) + len(self.partial) + len(self.complementary)

    # ------------------------------------------------------------------
    def recall_against(self, truth: "RelationshipSet") -> Recall:
        """Ratio of found-to-actual relationships, per type.

        A type with an empty ground-truth set counts as recall 1.0
        (there was nothing to find).
        """

        def ratio(found: set[Pair], actual: set[Pair]) -> float:
            if not actual:
                return 1.0
            return len(found & actual) / len(actual)

        return Recall(
            full=ratio(self.full, truth.full),
            partial=ratio(self.partial, truth.partial),
            complementary=ratio(self.complementary, truth.complementary),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationshipSet):
            return NotImplemented
        return (
            self.full == other.full
            and self.partial == other.partial
            and self.complementary == other.complementary
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return (
            f"RelationshipSet(full={len(self.full)}, partial={len(self.partial)}, "
            f"complementary={len(self.complementary)})"
        )
