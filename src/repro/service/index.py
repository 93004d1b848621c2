"""Adjacency index over a materialised :class:`RelationshipSet`.

The store answers "give me all pairs"; exploration needs "who contains
*this* observation?".  :class:`RelationshipIndex` turns the three pair
sets into forward/reverse adjacency maps so that every point lookup is
a dict probe returning exactly the answer set — O(answer size), never a
scan over |S_F|+|S_P|+|S_C| pairs:

* ``fully_within(o)`` / ``fully_contains(o)`` — reverse/forward full
  containment,
* ``partially_within(o)`` / ``partially_contains(o)`` — the same for
  partial containment, with ``top_partial`` serving top-k queries from
  degree-sorted neighbour lists,
* ``complements_of(o)`` — the symmetric complementarity neighbourhood.

When built with the :class:`~repro.core.space.ObservationSpace` the
index also answers the per-dataset and per-cube (level signature)
groupings that back the service's dataset/dimension filters, by reading
the space's own columns — it keeps no copy of them.

Construction is a single pass over the pairs and observations —
O(|S_F|+|S_P|+|S_C|+n) plus one sort per partial neighbour list — and
the index is *incrementally maintainable*: feed the
:class:`~repro.core.results.RelationshipDelta` reported by
``update_relationships`` / ``remove_observations`` to
:meth:`apply_delta` and only the touched adjacency entries change
(degree-sorted lists are re-ranked lazily, on next query).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.results import RelationshipDelta, RelationshipSet, canonical
from repro.core.space import ObservationSpace
from repro.rdf.terms import URIRef

__all__ = ["RelationshipIndex"]

Signature = tuple[int, ...]


def _add_edge(adjacency: dict[URIRef, set[URIRef]], source: URIRef, target: URIRef) -> None:
    adjacency.setdefault(source, set()).add(target)


def _drop_edge(adjacency: dict[URIRef, set[URIRef]], source: URIRef, target: URIRef) -> None:
    neighbours = adjacency.get(source)
    if neighbours is None:
        return
    neighbours.discard(target)
    if not neighbours:
        del adjacency[source]


class RelationshipIndex:
    """Forward/reverse adjacency over S_F, S_P and S_C.

    The index *aliases* ``result`` — it keeps a reference to the
    relationship set's ``degrees``/``partial_map`` so metadata stays
    current as the set is mutated in place, and mirrors the pair sets
    into adjacency maps that :meth:`apply_delta` keeps in sync.
    """

    def __init__(self, result: RelationshipSet, space: ObservationSpace | None = None):
        self.result = result
        # full containment: container -> contained, and the reverse
        self._full_out: dict[URIRef, set[URIRef]] = {}
        self._full_in: dict[URIRef, set[URIRef]] = {}
        # partial containment, same orientation
        self._partial_out: dict[URIRef, set[URIRef]] = {}
        self._partial_in: dict[URIRef, set[URIRef]] = {}
        # complementarity (symmetric)
        self._compl: dict[URIRef, set[URIRef]] = {}
        for a, b in result.full:
            _add_edge(self._full_out, a, b)
            _add_edge(self._full_in, b, a)
        for a, b in result.partial:
            _add_edge(self._partial_out, a, b)
            _add_edge(self._partial_in, b, a)
        for a, b in result.complementary:
            _add_edge(self._compl, a, b)
            _add_edge(self._compl, b, a)

        # dataset/cube groupings are read through the space, if any
        self.space = space

        # degree-sorted partial neighbour lists, rebuilt lazily per uri
        self._rank: dict[URIRef, tuple[tuple[URIRef, float, str], ...]] = {}
        self._rank_dirty: set[URIRef] = set(self._partial_out) | set(self._partial_in)

    # ------------------------------------------------------------------
    # Point lookups — each a single dict probe.
    # ------------------------------------------------------------------
    def fully_contains(self, uri: URIRef) -> frozenset[URIRef]:
        """Observations fully contained by ``uri``."""
        return frozenset(self._full_out.get(uri, ()))

    def fully_within(self, uri: URIRef) -> frozenset[URIRef]:
        """Observations that fully contain ``uri``."""
        return frozenset(self._full_in.get(uri, ()))

    def partially_contains(self, uri: URIRef) -> frozenset[URIRef]:
        return frozenset(self._partial_out.get(uri, ()))

    def partially_within(self, uri: URIRef) -> frozenset[URIRef]:
        return frozenset(self._partial_in.get(uri, ()))

    def complements_of(self, uri: URIRef) -> frozenset[URIRef]:
        return frozenset(self._compl.get(uri, ()))

    def degree(self, container: URIRef, contained: URIRef) -> float | None:
        return self.result.degrees.get((container, contained))

    # ------------------------------------------------------------------
    # Degree-ranked partial neighbours (top-k partial containment).
    # ------------------------------------------------------------------
    def _ranked(self, uri: URIRef) -> tuple[tuple[URIRef, float, str], ...]:
        if uri in self._rank_dirty or uri not in self._rank:
            degrees = self.result.degrees
            entries = [
                (other, degrees.get((uri, other), 0.0), "contains")
                for other in self._partial_out.get(uri, ())
            ]
            entries += [
                (other, degrees.get((other, uri), 0.0), "within")
                for other in self._partial_in.get(uri, ())
            ]
            entries.sort(key=lambda item: (-item[1], str(item[0]), item[2]))
            self._rank[uri] = tuple(entries)
            self._rank_dirty.discard(uri)
        return self._rank[uri]

    def top_partial(
        self, uri: URIRef, k: int = 10, direction: str = "both"
    ) -> list[tuple[URIRef, float, str]]:
        """The ``k`` highest-degree partial-containment neighbours.

        ``direction`` restricts to ``"contains"`` (``uri`` as
        container), ``"within"`` (``uri`` as contained) or ``"both"``.
        """
        if direction not in ("both", "contains", "within"):
            raise ValueError(f"unknown direction {direction!r}")
        ranked = self._ranked(uri)
        if direction != "both":
            ranked = tuple(entry for entry in ranked if entry[2] == direction)
        return list(ranked[: max(k, 0)])

    # ------------------------------------------------------------------
    # Groupings, read off the observation space
    # ------------------------------------------------------------------
    def observe(self, space: ObservationSpace | None) -> None:
        """Answer groupings from ``space`` from now on (a removal hands
        the engine a new space)."""
        self.space = space

    def _row(self, uri: URIRef) -> int | None:
        known = self.space is not None and uri in self.space
        return self.space.index_of(uri) if known else None

    def dataset_members(self, dataset: URIRef) -> frozenset[URIRef]:
        return frozenset(self.datasets.get(dataset, ()))

    def cube_members(self, signature: Signature) -> frozenset[URIRef]:
        return frozenset(self.cubes.get(tuple(signature), ()))

    def dataset_of(self, uri: URIRef) -> URIRef | None:
        row = self._row(uri)
        return None if row is None else self.space.datasets[row]

    def signature_of(self, uri: URIRef) -> Signature | None:
        row = self._row(uri)
        return None if row is None else self.space.level_signature(row)

    @property
    def datasets(self) -> Mapping[URIRef, set[URIRef]]:
        groups: dict[URIRef, set[URIRef]] = {}
        if self.space is not None:
            for uri, dataset in zip(self.space.uris, self.space.datasets):
                groups.setdefault(dataset, set()).add(uri)
        return groups

    @property
    def cubes(self) -> Mapping[Signature, set[URIRef]]:
        if self.space is None:
            return {}
        signatures, members, offsets, _ = self.space.cubes()
        uris = self.space.uris
        return {
            tuple(signature): {uris[row] for row in members[offsets[c] : offsets[c + 1]].tolist()}
            for c, signature in enumerate(signatures.tolist())
        }

    # ------------------------------------------------------------------
    def __contains__(self, uri: URIRef) -> bool:
        if self.space is not None and uri in self.space:
            return True
        return any(
            uri in adjacency
            for adjacency in (
                self._full_out,
                self._full_in,
                self._partial_out,
                self._partial_in,
                self._compl,
            )
        )

    def observations(self) -> Iterator[URIRef]:
        """Every known observation URI (in the space or a pair endpoint)."""
        known = self.space.uris if self.space is not None else []
        seen: set[URIRef] = set(known)
        yield from known
        for adjacency in (
            self._full_out,
            self._full_in,
            self._partial_out,
            self._partial_in,
            self._compl,
        ):
            for uri in adjacency:
                if uri not in seen:
                    seen.add(uri)
                    yield uri

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: RelationshipDelta) -> None:
        """Apply one incremental write in O(|delta|).

        Adjacency entries of touched observations are updated in place;
        their degree-sorted neighbour lists are marked dirty and
        re-ranked on the next top-k query.
        """
        for a, b in delta.added_full:
            _add_edge(self._full_out, a, b)
            _add_edge(self._full_in, b, a)
        for a, b in delta.removed_full:
            _drop_edge(self._full_out, a, b)
            _drop_edge(self._full_in, b, a)
        for a, b in delta.added_partial:
            _add_edge(self._partial_out, a, b)
            _add_edge(self._partial_in, b, a)
        for a, b in delta.removed_partial:
            _drop_edge(self._partial_out, a, b)
            _drop_edge(self._partial_in, b, a)
        for a, b in delta.added_complementary:
            pair = canonical(a, b)
            _add_edge(self._compl, pair[0], pair[1])
            _add_edge(self._compl, pair[1], pair[0])
        for a, b in delta.removed_complementary:
            _drop_edge(self._compl, a, b)
            _drop_edge(self._compl, b, a)
        for uri in delta.touched():
            self._rank_dirty.add(uri)
            self._rank.pop(uri, None)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "full_pairs": len(self.result.full),
            "partial_pairs": len(self.result.partial),
            "complementary_pairs": len(self.result.complementary),
            "observations": len(self.space or ()) or sum(1 for _ in self.observations()),
            "datasets": len(set(self.space.datasets)) if self.space is not None else 0,
            "cubes": len(self.space.cubes()[0]) if self.space is not None else 0,
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"RelationshipIndex(full={stats['full_pairs']}, "
            f"partial={stats['partial_pairs']}, "
            f"complementary={stats['complementary_pairs']}, "
            f"observations={stats['observations']})"
        )
