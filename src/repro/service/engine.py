"""The LRU-cached relationship query engine.

:class:`QueryEngine` fronts a :class:`~repro.service.index.RelationshipIndex`
with the read API the HTTP layer serves:

* point lookups (``containers`` / ``contained`` / ``complements``),
* ``related`` — top-k related observations across all three relations,
  scored by containment degree,
* ``transitive_containers`` / ``transitive_contained`` — breadth-first
  walks over the full-containment graph,
* ``find`` — dataset and dimension filters over the observation space,

plus the two incremental writes (``insert`` / ``remove``) that route
through :func:`~repro.core.api.update_relationships` /
:func:`~repro.core.api.remove_observations` and apply the reported
:class:`~repro.core.results.RelationshipDelta` to the index.

Concurrency model: every read runs under the shared side of a
readers–writer lock; writes take the exclusive side, mutate the index,
then bump the engine's *generation* counter.  Query results are cached
in a size-bounded LRU stamped with the generation they were computed
from — a bumped generation turns every older entry into a miss, so a
reader can never observe a cache entry from before an applied write.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ServiceError, StorageError, UnknownObservationError
from repro.core.api import remove_observations, update_relationships
from repro.core.results import RelationshipDelta, RelationshipSet
from repro.core.space import ObservationSpace
from repro.rdf.terms import URIRef
from repro.resilience.deadline import check_deadline
from repro.service.cache import LRUCache
from repro.service.index import RelationshipIndex
from repro.service.rwlock import RWLock

__all__ = ["QueryEngine"]

NewObservation = tuple[URIRef, URIRef, Mapping[URIRef, URIRef], Iterable[URIRef]]

# Registry metrics resolved once per process; see docs/observability.md.
_METRICS = None


def _metrics():
    global _METRICS
    if _METRICS is None:
        from repro.obs.registry import get_registry

        registry = get_registry()
        _METRICS = {
            "sink_errors": registry.counter(
                "repro_engine_delta_sink_errors_total",
                "Delta-sink (WAL append) failures during engine writes.",
            ),
            "feed_publish_errors": registry.counter(
                "repro_stream_feed_publish_errors_total",
                "Changefeed publishes that failed after a durable WAL append.",
            ),
        }
    return _METRICS


class QueryEngine:
    """Cached, lock-protected queries over a relationship index."""

    def __init__(
        self,
        result: RelationshipSet,
        space: ObservationSpace | None = None,
        cache_size: int = 1024,
        index: RelationshipIndex | None = None,
        delta_sink=None,
        storage_info=None,
        changefeed=None,
    ):
        self.result = result
        self.space = space
        # A prebuilt (possibly lazy, segment-backed) index can be
        # injected so engine construction stays O(manifest) when the
        # store supports it; see repro.storage.lazy.
        self.index = index if index is not None else RelationshipIndex(result, space)
        self.lock = RWLock()
        self.cache = LRUCache(cache_size)
        self.generation = 0
        # Write-ahead persistence: every applied RelationshipDelta is
        # handed to the sink (e.g. SegmentStore.append_delta) under the
        # write lock, before the write is acknowledged.
        self.delta_sink = delta_sink
        self.wal_appends = 0
        # Zero-arg callable returning storage-layer facts (e.g.
        # ``SegmentStore.describe``); surfaced by stats()/healthz.
        self.storage_info = storage_info
        # Ordered relationship changefeed (repro.stream.changefeed):
        # every applied delta is published with a monotonic offset,
        # under the write lock, after the WAL append succeeds.
        self.changefeed = changefeed
        self.feed_offset = changefeed.head_offset if changefeed is not None else None

    # ------------------------------------------------------------------
    # Cache plumbing: compute() runs under the read lock, so the
    # generation it is stamped with cannot change mid-computation.
    # ------------------------------------------------------------------
    def _cached(self, key: tuple, compute):
        from repro.obs.slowlog import annotate

        with self.lock.read_locked():
            generation = self.generation
            value = self.cache.get(key, generation)
            if value is LRUCache.MISS:
                # A cache hit is too cheap to be worth cancelling; a
                # miss may materialise segments, so spend the request's
                # remaining budget here (and at every segment below).
                annotate(cache="miss")
                check_deadline("engine.query")
                value = compute()
                self.cache.put(key, generation, value)
            else:
                annotate(cache="hit")
            return value

    def _require_known(self, uri: URIRef) -> None:
        if uri not in self.index:
            raise UnknownObservationError(uri)

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def containers(self, uri: URIRef) -> tuple[URIRef, ...]:
        """Observations that fully contain ``uri`` (sorted)."""

        def compute():
            self._require_known(uri)
            return tuple(sorted(self.index.fully_within(uri), key=str))

        return self._cached(("containers", uri), compute)

    def contained(self, uri: URIRef) -> tuple[URIRef, ...]:
        """Observations fully contained by ``uri`` (sorted)."""

        def compute():
            self._require_known(uri)
            return tuple(sorted(self.index.fully_contains(uri), key=str))

        return self._cached(("contained", uri), compute)

    def complements(self, uri: URIRef) -> tuple[URIRef, ...]:
        def compute():
            self._require_known(uri)
            return tuple(sorted(self.index.complements_of(uri), key=str))

        return self._cached(("complements", uri), compute)

    def top_partial(
        self, uri: URIRef, k: int = 10, direction: str = "both"
    ) -> tuple[tuple[URIRef, float, str], ...]:
        """Top-k partial-containment neighbours by OCM degree."""

        def compute():
            self._require_known(uri)
            return tuple(self.index.top_partial(uri, k, direction))

        return self._cached(("top_partial", uri, k, direction), compute)

    # ------------------------------------------------------------------
    # Top-k related observations across all relations
    # ------------------------------------------------------------------
    def related(self, uri: URIRef, k: int = 10) -> tuple[dict, ...]:
        """The ``k`` most related observations, any relation.

        Full containment (either direction) and complementarity score
        1.0; partial containment scores its OCM degree.  Results are
        ``{"uri", "score", "relation"}`` dicts ordered by descending
        score, ties broken by URI.
        """

        def compute():
            self._require_known(uri)
            best: dict[URIRef, tuple[float, str]] = {}

            def offer(other: URIRef, score: float, relation: str) -> None:
                current = best.get(other)
                if current is None or score > current[0]:
                    best[other] = (score, relation)

            for other in self.index.fully_within(uri):
                offer(other, 1.0, "full-container")
            for other in self.index.fully_contains(uri):
                offer(other, 1.0, "full-contained")
            for other in self.index.complements_of(uri):
                offer(other, 1.0, "complement")
            degrees = self.result.degrees
            for other in self.index.partially_contains(uri):
                offer(other, degrees.get((uri, other), 0.0), "partial-contained")
            for other in self.index.partially_within(uri):
                offer(other, degrees.get((other, uri), 0.0), "partial-container")
            ranked = sorted(
                best.items(), key=lambda item: (-item[1][0], str(item[0]))
            )
            return tuple(
                {"uri": other, "score": score, "relation": relation}
                for other, (score, relation) in ranked[: max(k, 0)]
            )

        return self._cached(("related", uri, k), compute)

    # ------------------------------------------------------------------
    # Transitive walks over full containment
    # ------------------------------------------------------------------
    def transitive_containers(
        self, uri: URIRef, max_depth: int | None = None
    ) -> tuple[tuple[URIRef, int], ...]:
        """Breadth-first ancestors in the full-containment graph.

        Returns ``(uri, depth)`` pairs in BFS order (depth 1 = direct
        containers).  Cycles — mutual containment is legal — terminate
        because visited observations are never re-queued.
        """
        return self._walk(uri, max_depth, upward=True)

    def transitive_contained(
        self, uri: URIRef, max_depth: int | None = None
    ) -> tuple[tuple[URIRef, int], ...]:
        """Breadth-first descendants in the full-containment graph."""
        return self._walk(uri, max_depth, upward=False)

    def _walk(self, uri: URIRef, max_depth: int | None, upward: bool):
        key = ("walk-up" if upward else "walk-down", uri, max_depth)
        step = self.index.fully_within if upward else self.index.fully_contains

        def compute():
            self._require_known(uri)
            visited = {uri}
            frontier = [uri]
            depth = 0
            out: list[tuple[URIRef, int]] = []
            while frontier and (max_depth is None or depth < max_depth):
                depth += 1
                next_frontier: list[URIRef] = []
                for node in frontier:
                    for neighbour in sorted(step(node), key=str):
                        if neighbour not in visited:
                            visited.add(neighbour)
                            out.append((neighbour, depth))
                            next_frontier.append(neighbour)
                frontier = next_frontier
            return tuple(out)

        return self._cached(key, compute)

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def find(
        self,
        dataset: URIRef | None = None,
        dimension: URIRef | None = None,
        limit: int | None = None,
    ) -> tuple[URIRef, ...]:
        """Observations filtered by dataset and/or bound dimension.

        The dimension filter keeps observations whose value for
        ``dimension`` sits below the hierarchy root (i.e. the source
        observation actually bound that dimension); it requires the
        engine to have been built with an observation space.
        """

        def compute():
            position: int | None = None
            if dimension is not None:
                if self.space is None:
                    raise ServiceError(
                        "dimension filters require an observation space; "
                        "the engine was built from a relationship store alone"
                    )
                try:
                    position = self.space.dimensions.index(dimension)
                except ValueError:
                    raise ServiceError(
                        f"unknown dimension {dimension}; bus: "
                        f"{', '.join(str(d) for d in self.space.dimensions)}"
                    ) from None
            if dataset is not None:
                candidates = self.index.dataset_members(dataset)
            else:
                candidates = frozenset(self.index.observations())
            if position is not None:
                candidates = frozenset(
                    uri
                    for uri in candidates
                    if (signature := self.index.signature_of(uri)) is not None
                    and signature[position] > 0
                )
            ordered = tuple(sorted(candidates, key=str))
            return ordered if limit is None else ordered[:limit]

        return self._cached(("find", dataset, dimension, limit), compute)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self, uri: URIRef) -> dict:
        """One observation's relationship profile (counts + grouping)."""

        def compute():
            self._require_known(uri)
            return {
                "uri": uri,
                "dataset": self.index.dataset_of(uri),
                "cube": self.index.signature_of(uri),
                "containers": len(self.index.fully_within(uri)),
                "contained": len(self.index.fully_contains(uri)),
                "complements": len(self.index.complements_of(uri)),
                "partial_containers": len(self.index.partially_within(uri)),
                "partial_contained": len(self.index.partially_contains(uri)),
            }

        return self._cached(("summary", uri), compute)

    def stats(self) -> dict:
        from repro.core.kernels import kernel_counters

        with self.lock.read_locked():
            stats = {
                "generation": self.generation,
                "observations": len(self.space) if self.space is not None else None,
                "index": self.index.stats(),
                "cache": self.cache.stats(),
                "persistence": {
                    "write_ahead_log": self.delta_sink is not None,
                    "wal_appends": self.wal_appends,
                },
                "changefeed": (
                    {"head_offset": self.changefeed.head_offset}
                    if self.changefeed is not None
                    else None
                ),
                # process-wide vectorised-kernel usage (cube-pair
                # evaluations served by repro.core.kernels)
                "kernels": kernel_counters(),
            }
            if self.storage_info is not None:
                try:
                    stats["storage"] = self.storage_info()
                except (OSError, StorageError) as exc:
                    stats["storage"] = {"error": str(exc)}
            return stats

    # ------------------------------------------------------------------
    # Incremental writes
    # ------------------------------------------------------------------
    def _persist(self, delta) -> None:
        """Journal an applied delta before the write is acknowledged.

        Runs under the write lock, right after the in-memory
        relationship set was mutated and before the index/generation
        advance — a sink failure (disk full, store gone, store locked)
        surfaces as a :class:`ServiceError`, and the caller rolls the
        in-memory mutation back, so the served state never diverges
        from the durable log.
        """
        if self.delta_sink is None:
            return
        try:
            self.delta_sink(delta)
        except (OSError, StorageError) as exc:
            _metrics()["sink_errors"].inc()
            raise ServiceError(f"write-ahead log append failed: {exc}") from exc
        self.wal_appends += 1

    def _publish(self, delta, op: str) -> None:
        """Publish an applied delta to the changefeed, if attached.

        Runs under the write lock after the WAL append succeeded, so
        offsets are monotonic and ordered exactly as deltas were
        applied.  The WAL is the durability source of truth; a feed
        publish failure is counted (``repro_stream_feed_publish_errors
        _total``) but does not fail the acknowledged write — consumers
        detect the gap through feed-lag alerts and resync.
        """
        if self.changefeed is None:
            return
        from repro.obs import current_trace_id

        try:
            self.feed_offset = self.changefeed.publish(
                delta, op=op, trace_id=current_trace_id()
            )
        except (OSError, StorageError):
            _metrics()["feed_publish_errors"].inc()

    def insert(self, observations: Iterable[NewObservation]):
        """Insert observations; returns the applied delta.

        Runs the lattice-pruned incremental recomputation under the
        write lock, applies the delta to the index and bumps the
        generation so every cached read is invalidated.
        """
        if self.space is None:
            raise ServiceError(
                "inserts require an observation space; "
                "the engine was built from a relationship store alone"
            )
        observations = list(observations)
        with self.lock.write_locked():
            start = len(self.space)
            _, delta = update_relationships(
                self.space, self.result, observations, return_delta=True
            )
            try:
                self._persist(delta)
            except ServiceError:
                # Unwind the in-memory mutation: the index and
                # generation were not touched yet, and inserts only
                # add genuinely-new pairs, so the inverse delta (and
                # dropping the appended observations) restores the
                # exact pre-call state.
                self.result.apply_delta(
                    RelationshipDelta(
                        removed_full=set(delta.added_full),
                        removed_partial=set(delta.added_partial),
                        removed_complementary=set(delta.added_complementary),
                    )
                )
                if len(self.space) > start:
                    self.space = self.space.select(range(start))
                raise
            self._publish(delta, "insert")
            for record in self.space.observations[start:]:
                self.index.register(
                    record.uri, record.dataset, self.space.level_signature(record.index)
                )
            self.index.apply_delta(delta)
            self.generation += 1
        return delta

    def remove(self, uris: Iterable[URIRef]):
        """Retract observations; returns the applied delta."""
        if self.space is None:
            raise ServiceError(
                "removals require an observation space; "
                "the engine was built from a relationship store alone"
            )
        uris = list(uris)
        with self.lock.write_locked():
            known = {record.uri for record in self.space.observations}
            missing = [uri for uri in uris if uri not in known]
            if missing:
                raise UnknownObservationError(missing[0])
            # Removal purges the metadata of retracted partial pairs,
            # and the delta deliberately carries none — snapshot it so
            # a failed WAL append can restore the exact prior state.
            removed = set(uris)
            saved_map = {}
            saved_degrees = {}
            for pair in self.result.partial:
                if pair[0] in removed or pair[1] in removed:
                    if pair in self.result.partial_map:
                        saved_map[pair] = self.result.partial_map[pair]
                    if pair in self.result.degrees:
                        saved_degrees[pair] = self.result.degrees[pair]
            new_space, _, delta = remove_observations(
                self.space, self.result, uris, return_delta=True
            )
            try:
                self._persist(delta)
            except ServiceError:
                self.result.full |= delta.removed_full
                self.result.partial |= delta.removed_partial
                self.result.complementary |= delta.removed_complementary
                self.result.partial_map.update(saved_map)
                self.result.degrees.update(saved_degrees)
                raise
            self._publish(delta, "remove")
            self.space = new_space
            for uri in uris:
                self.index.unregister(uri)
            self.index.apply_delta(delta)
            self.generation += 1
        return delta

    def __repr__(self) -> str:
        return (
            f"QueryEngine(generation={self.generation}, "
            f"cache={len(self.cache)}/{self.cache.maxsize}, index={self.index!r})"
        )
