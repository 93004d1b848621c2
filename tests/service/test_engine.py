"""Unit tests for the LRU-cached query engine (and its primitives)."""

import pytest

from repro.core import compute_baseline
from repro.errors import AlgorithmError, ServiceError, UnknownObservationError
from repro.rdf.terms import URIRef
from repro.service import LRUCache, QueryEngine, RWLock

from tests.conftest import make_random_space


def make_engine(n=40, seed=70, cache_size=1024):
    space = make_random_space(n, seed=seed)
    result = compute_baseline(space, collect_partial_dimensions=True)
    return QueryEngine(result, space, cache_size=cache_size), space, result


def newcomer_tuple(space, record, uri):
    return (
        URIRef(uri),
        record.dataset,
        dict(zip(space.dimensions, record.codes)),
        record.measures,
    )


class TestLRUCache:
    def test_put_get_and_hit_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a", 0) is LRUCache.MISS
        cache.put("a", 0, 42)
        assert cache.get("a", 0) == 42
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh a
        cache.put("c", 0, 3)  # evicts b
        assert cache.get("b", 0) is LRUCache.MISS
        assert cache.get("a", 0) == 1
        assert cache.evictions == 1

    def test_generation_mismatch_is_miss_and_evicts(self):
        cache = LRUCache(4)
        cache.put("a", 0, 1)
        assert cache.get("a", 1) is LRUCache.MISS
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_zero_size_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 0, 1)
        assert cache.get("a", 0) is LRUCache.MISS
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestRWLock:
    def test_read_reentrant_across_threads(self):
        import threading

        lock = RWLock()
        entered = threading.Event()
        with lock.read_locked():
            other = threading.Thread(target=lambda: (lock.acquire_read(), entered.set(), lock.release_read()))
            other.start()
            other.join(timeout=5)
            assert entered.is_set(), "second reader should not block"

    def test_writer_excludes_reader(self):
        import threading

        lock = RWLock()
        lock.acquire_write()
        got_read = threading.Event()
        reader = threading.Thread(target=lambda: (lock.acquire_read(), got_read.set(), lock.release_read()))
        reader.start()
        assert not got_read.wait(timeout=0.2), "reader must wait for the writer"
        lock.release_write()
        assert got_read.wait(timeout=5)
        reader.join(timeout=5)


class TestPointLookups:
    def test_containers_match_result(self):
        engine, space, result = make_engine()
        for record in space.observations[:10]:
            assert set(engine.containers(record.uri)) == {
                a for a, b in result.full if b == record.uri
            }
            assert set(engine.contained(record.uri)) == {
                b for a, b in result.full if a == record.uri
            }

    def test_sorted_deterministic(self):
        engine, space, _ = make_engine()
        uri = space.observations[0].uri
        assert list(engine.containers(uri)) == sorted(engine.containers(uri), key=str)

    def test_unknown_uri_raises_404_error(self):
        engine, _, _ = make_engine()
        with pytest.raises(UnknownObservationError):
            engine.containers(URIRef("http://test.example/ghost"))

    def test_summary_counts(self):
        engine, space, result = make_engine()
        uri = space.observations[0].uri
        summary = engine.summary(uri)
        assert summary["containers"] == len([1 for a, b in result.full if b == uri])
        assert summary["dataset"] == space.observations[0].dataset


class TestRelated:
    def test_scores_descending_and_bounded(self):
        engine, space, _ = make_engine()
        for record in space.observations[:10]:
            entries = engine.related(record.uri, k=5)
            assert len(entries) <= 5
            scores = [entry["score"] for entry in entries]
            assert scores == sorted(scores, reverse=True)

    def test_full_relation_outranks_partial(self):
        engine, space, result = make_engine()
        container, contained = next(iter(result.full))
        entries = engine.related(contained, k=10_000)
        by_uri = {entry["uri"]: entry for entry in entries}
        assert by_uri[container]["score"] == 1.0
        assert by_uri[container]["relation"].startswith("full")


class TestTransitive:
    def test_walk_reaches_grandparents(self):
        engine, space, result = make_engine()
        # build uri -> direct containers map to cross-check BFS
        containers = {}
        for a, b in result.full:
            containers.setdefault(b, set()).add(a)
        uri, direct = next(iter(containers.items()))
        walk = dict(engine.transitive_containers(uri))
        assert direct <= set(walk)
        for parent in direct:
            assert walk[parent] == 1
            for grand in containers.get(parent, ()):  # depth-2 unless also direct
                assert grand in walk

    def test_max_depth_limits(self):
        engine, space, result = make_engine()
        uri = next(b for a, b in result.full)
        depth1 = engine.transitive_containers(uri, max_depth=1)
        assert all(depth == 1 for _, depth in depth1)
        assert {u for u, _ in depth1} == set(engine.containers(uri))

    def test_cycle_terminates(self):
        """Mutual containment (equal codes, shared measure) must not loop."""
        engine, space, _ = make_engine(n=10, seed=71)
        record = space.observations[0]
        engine.insert([newcomer_tuple(space, record, "http://test.example/twin")])
        walk = engine.transitive_containers(record.uri)
        assert len(walk) == len({u for u, _ in walk})


class TestFilters:
    def test_dataset_filter(self):
        engine, space, _ = make_engine()
        dataset = space.observations[0].dataset
        assert set(engine.find(dataset=dataset)) == {
            r.uri for r in space.observations if r.dataset == dataset
        }

    def test_dimension_filter_keeps_bound_observations(self):
        engine, space, _ = make_engine()
        dimension = space.dimensions[0]
        expected = {
            r.uri
            for r in space.observations
            if space.level_signature(r.index)[0] > 0
        }
        assert set(engine.find(dimension=dimension)) == expected

    def test_limit(self):
        engine, _, _ = make_engine()
        assert len(engine.find(limit=3)) == 3

    def test_unknown_dimension_is_service_error(self):
        engine, _, _ = make_engine()
        with pytest.raises(ServiceError):
            engine.find(dimension=URIRef("http://test.example/no-such-dim"))

    def test_dimension_filter_without_space_rejected(self):
        _, space, result = make_engine()
        bare = QueryEngine(result)  # store only
        with pytest.raises(ServiceError):
            bare.find(dimension=space.dimensions[0])


class TestCacheBehaviour:
    def test_repeated_query_hits_cache(self):
        engine, space, _ = make_engine()
        uri = space.observations[0].uri
        first = engine.related(uri, k=5)
        assert engine.cache.hits == 0
        second = engine.related(uri, k=5)
        assert engine.cache.hits == 1
        assert first == second

    def test_insert_bumps_generation_and_invalidates(self):
        engine, space, _ = make_engine(n=10, seed=72)
        record = space.observations[0]
        uri = record.uri
        before = engine.complements(uri)
        assert engine.generation == 0
        engine.insert([newcomer_tuple(space, record, "http://test.example/twin")])
        assert engine.generation == 1
        after = engine.complements(uri)
        assert URIRef("http://test.example/twin") in after
        assert set(before) <= set(after)

    def test_remove_invalidates(self):
        engine, space, _ = make_engine(n=10, seed=73)
        record = space.observations[0]
        engine.insert([newcomer_tuple(space, record, "http://test.example/twin")])
        assert URIRef("http://test.example/twin") in engine.complements(record.uri)
        engine.remove([URIRef("http://test.example/twin")])
        assert URIRef("http://test.example/twin") not in engine.complements(record.uri)
        with pytest.raises(UnknownObservationError):
            engine.remove([URIRef("http://test.example/twin")])

    def test_cache_disabled_still_correct(self):
        engine, space, result = make_engine(cache_size=0)
        uri = space.observations[0].uri
        assert engine.related(uri, 5) == engine.related(uri, 5)
        assert engine.cache.hits == 0

    def test_cache_size_bound_respected(self):
        engine, space, _ = make_engine(cache_size=4)
        for record in space.observations[:20]:
            engine.containers(record.uri)
        assert len(engine.cache) <= 4

    def test_insert_without_space_rejected(self):
        _, space, result = make_engine()
        bare = QueryEngine(result)
        with pytest.raises(ServiceError):
            bare.insert([])

    def test_engine_matches_fresh_engine_after_writes(self):
        """Incremental index + cache must agree with a from-scratch engine."""
        engine, space, result = make_engine(n=30, seed=74)
        record = space.observations[3]
        engine.insert(
            [
                newcomer_tuple(space, record, "http://test.example/new-a"),
                newcomer_tuple(space, space.observations[7], "http://test.example/new-b"),
            ]
        )
        engine.remove([space.observations[5].uri])
        fresh = QueryEngine(engine.result, engine.space)
        for uri in list(engine.index.observations())[:15]:
            assert engine.containers(uri) == fresh.containers(uri)
            assert engine.related(uri, 8) == fresh.related(uri, 8)
            assert engine.top_partial(uri, 5) == fresh.top_partial(uri, 5)


class TestPersistenceFailureRollback:
    """A failed WAL append must not leave the served state diverged."""

    @staticmethod
    def snapshot(engine):
        return (
            set(engine.result.full),
            set(engine.result.partial),
            set(engine.result.complementary),
            dict(engine.result.partial_map),
            dict(engine.result.degrees),
            [record.uri for record in engine.space.observations],
            engine.generation,
        )

    def make_failing_engine(self, n=10, seed=75):
        engine, space, result = make_engine(n=n, seed=seed)

        def sink(delta):
            raise OSError("disk full")

        engine.delta_sink = sink
        return engine, space

    def test_failed_insert_rolls_back(self):
        engine, space = self.make_failing_engine()
        before = self.snapshot(engine)
        record = space.observations[0]
        with pytest.raises(ServiceError, match="write-ahead log append failed"):
            engine.insert([newcomer_tuple(space, record, "http://test.example/lost")])
        assert self.snapshot(engine) == before
        assert engine.wal_appends == 0
        with pytest.raises(UnknownObservationError):
            engine.complements(URIRef("http://test.example/lost"))

    def test_failed_remove_rolls_back(self):
        engine, space = self.make_failing_engine(n=20, seed=76)
        before = self.snapshot(engine)
        with pytest.raises(ServiceError, match="write-ahead log append failed"):
            engine.remove([space.observations[0].uri])
        assert self.snapshot(engine) == before
        # the observation is still served, metadata included
        engine.summary(space.observations[0].uri)

    def test_engine_still_writable_after_sink_recovers(self):
        engine, space = self.make_failing_engine()
        record = space.observations[0]
        with pytest.raises(ServiceError):
            engine.insert([newcomer_tuple(space, record, "http://test.example/retry")])
        engine.delta_sink = lambda delta: None  # sink recovered
        engine.insert([newcomer_tuple(space, record, "http://test.example/retry")])
        assert URIRef("http://test.example/retry") in engine.complements(record.uri)
        fresh = QueryEngine(engine.result, engine.space)
        for uri in list(engine.index.observations())[:10]:
            assert engine.containers(uri) == fresh.containers(uri)


class TestInsertValidation:
    """A batch is validated whole, and a URI names one observation."""

    @staticmethod
    def bad_tuple(space, uri):
        return (URIRef(uri), URIRef("http://test.example/ds"), {space.dimensions[0]: URIRef("http://test.example/nowhere")}, {URIRef("http://test.example/m0")})

    def test_rejected_batch_applies_nothing(self):
        engine, space, _ = make_engine(n=10, seed=77)
        before = TestPersistenceFailureRollback.snapshot(engine)
        record = space.observations[0]
        with pytest.raises(AlgorithmError):
            engine.insert(
                [
                    newcomer_tuple(space, record, "http://test.example/new1"),
                    self.bad_tuple(space, "http://test.example/bad"),
                ]
            )
        assert TestPersistenceFailureRollback.snapshot(engine) == before
        assert len(engine.space) == 10
        # A later twin of the rejected row pairs only with known rows.
        delta = engine.insert([newcomer_tuple(space, record, "http://test.example/twin")])
        touched = {uri for pair in delta.added_complementary | delta.added_full for uri in pair}
        assert URIRef("http://test.example/new1") not in touched
        assert URIRef("http://test.example/new1") not in engine.space

    def test_identical_reinsert_is_a_no_op(self):
        engine, space, _ = make_engine(n=10, seed=78)
        before = TestPersistenceFailureRollback.snapshot(engine)
        record = space.observations[4]
        delta = engine.insert([newcomer_tuple(space, record, record.uri)])
        assert delta.total_added() == 0
        assert len(engine.space) == 10
        assert (record.uri, record.uri) not in engine.result.complementary
        assert TestPersistenceFailureRollback.snapshot(engine) == before

    def test_conflicting_reinsert_is_a_conflict(self):
        engine, space, _ = make_engine(n=10, seed=79)
        before = TestPersistenceFailureRollback.snapshot(engine)
        record = space.observations[2]
        other = space.observations[3]
        changed = (record.uri, record.dataset, dict(zip(space.dimensions, other.codes)), {URIRef("http://test.example/elsewhere")})
        with pytest.raises(ServiceError) as caught:
            engine.insert([newcomer_tuple(space, record, "http://test.example/fresh"), changed])
        assert not isinstance(caught.value, UnknownObservationError)
        assert TestPersistenceFailureRollback.snapshot(engine) == before

    def test_uri_repeated_within_a_batch(self):
        engine, space, _ = make_engine(n=10, seed=80)
        record = space.observations[1]
        twin = newcomer_tuple(space, record, "http://test.example/twin")
        delta = engine.insert([twin, twin])
        assert len(engine.space) == 11
        assert (URIRef("http://test.example/twin"),) * 2 not in delta.added_complementary
        clash = (twin[0], twin[1], twin[2], {URIRef("http://test.example/elsewhere")})
        before = TestPersistenceFailureRollback.snapshot(engine)
        fresh = newcomer_tuple(space, record, "http://test.example/fresh")
        with pytest.raises(ServiceError):
            engine.insert([fresh, clash, fresh])
        assert TestPersistenceFailureRollback.snapshot(engine) == before


def test_removal_regroups_a_lazy_index_built_afterwards():
    """A removal before the first lookup: the deferred index build must
    answer groupings from the engine's new space, not the pending one."""
    from repro.storage import LazyRelationshipIndex

    space = make_random_space(12, seed=81)
    result = compute_baseline(space, collect_partial_dimensions=True)
    engine = QueryEngine(result, space, index=LazyRelationshipIndex(result, space))
    victim, survivor = space[0], space[1]
    engine.remove([victim.uri])
    assert victim.uri not in engine.index
    assert engine.index.dataset_of(victim.uri) is None
    assert engine.index.dataset_of(survivor.uri) == survivor.dataset
    assert engine.summary(survivor.uri)["cube"] == space.level_signature(1)
