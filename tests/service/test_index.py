"""Unit tests for the relationship adjacency index."""

import pytest

from repro.core import compute_baseline, remove_observations, update_relationships
from repro.data.example import build_example_space
from repro.service import RelationshipIndex

from tests.conftest import make_random_space


@pytest.fixture(scope="module")
def space():
    return make_random_space(50, seed=60)


@pytest.fixture(scope="module")
def result(space):
    return compute_baseline(space, collect_partial_dimensions=True)


@pytest.fixture()
def index(space, result):
    return RelationshipIndex(result, space)


class TestAdjacency:
    def test_full_containment_both_directions(self, index, result):
        for container, contained in result.full:
            assert contained in index.fully_contains(container)
            assert container in index.fully_within(contained)

    def test_partial_containment_both_directions(self, index, result):
        for container, contained in result.partial:
            assert contained in index.partially_contains(container)
            assert container in index.partially_within(contained)

    def test_complements_symmetric(self, index, result):
        for a, b in result.complementary:
            assert b in index.complements_of(a)
            assert a in index.complements_of(b)

    def test_lookup_matches_pair_scan(self, index, result, space):
        """Adjacency answers exactly the brute-force pair scan."""
        for record in space.observations[:10]:
            uri = record.uri
            assert index.fully_within(uri) == {a for a, b in result.full if b == uri}
            assert index.fully_contains(uri) == {b for a, b in result.full if a == uri}
            assert index.complements_of(uri) == {
                (b if a == uri else a) for a, b in result.complementary if uri in (a, b)
            }

    def test_unknown_uri_yields_empty(self, index):
        from repro.rdf.terms import URIRef

        ghost = URIRef("http://test.example/ghost")
        assert index.fully_within(ghost) == frozenset()
        assert index.top_partial(ghost) == []
        assert ghost not in index


class TestGroupings:
    def test_dataset_grouping_partitions_space(self, index, space):
        members = set()
        for dataset, uris in index.datasets.items():
            members |= uris
            for uri in uris:
                assert index.dataset_of(uri) == dataset
        assert members == {record.uri for record in space.observations}

    def test_cube_grouping_matches_level_signatures(self, index, space):
        for record in space.observations:
            signature = space.level_signature(record.index)
            assert record.uri in index.cube_members(signature)
            assert index.signature_of(record.uri) == signature

    def test_observations_iterates_registered(self, index, space):
        assert set(index.observations()) == {record.uri for record in space.observations}


class TestTopPartial:
    def test_sorted_by_degree_desc(self, index, result):
        for record_uri in list(index.observations())[:10]:
            entries = index.top_partial(record_uri, k=100)
            degrees = [degree for _, degree, _ in entries]
            assert degrees == sorted(degrees, reverse=True)

    def test_k_bounds_answer(self, index):
        uri = next(iter(index.observations()))
        assert len(index.top_partial(uri, k=3)) <= 3
        assert index.top_partial(uri, k=0) == []

    def test_direction_filter(self, index, result):
        uri = next(a for a, b in result.partial)
        contains = index.top_partial(uri, k=1000, direction="contains")
        within = index.top_partial(uri, k=1000, direction="within")
        assert all(way == "contains" for _, _, way in contains)
        assert all(way == "within" for _, _, way in within)
        assert {other for other, _, _ in contains} == index.partially_contains(uri)
        assert {other for other, _, _ in within} == index.partially_within(uri)

    def test_bad_direction_raises(self, index):
        uri = next(iter(index.observations()))
        with pytest.raises(ValueError):
            index.top_partial(uri, direction="sideways")


class TestIncrementalMaintenance:
    """apply_delta must leave the index identical to a rebuild."""

    @staticmethod
    def _snapshot(index, uris):
        return {
            uri: (
                index.fully_within(uri),
                index.fully_contains(uri),
                index.partially_within(uri),
                index.partially_contains(uri),
                index.complements_of(uri),
                tuple(index.top_partial(uri, k=10_000)),
            )
            for uri in uris
        }

    def test_insert_delta_equals_rebuild(self):
        space = make_random_space(40, seed=61)
        base_space = space.select(range(30))
        result = compute_baseline(base_space)
        index = RelationshipIndex(result, base_space)
        newcomers = [
            (r.uri, r.dataset, dict(zip(space.dimensions, r.codes)), r.measures)
            for r in space.observations[30:]
        ]
        _, delta = update_relationships(base_space, result, newcomers, return_delta=True)
        index.apply_delta(delta)
        rebuilt = RelationshipIndex(result, base_space)
        uris = [r.uri for r in base_space.observations]
        assert self._snapshot(index, uris) == self._snapshot(rebuilt, uris)

    def test_remove_delta_equals_rebuild(self):
        space = make_random_space(30, seed=62)
        result = compute_baseline(space)
        index = RelationshipIndex(result, space)
        victims = [space.observations[i].uri for i in (2, 11, 29)]
        new_space, result, delta = remove_observations(
            space, result, victims, return_delta=True
        )
        index.observe(new_space)
        index.apply_delta(delta)
        rebuilt = RelationshipIndex(result, new_space)
        uris = [r.uri for r in new_space.observations]
        assert self._snapshot(index, uris) == self._snapshot(rebuilt, uris)
        for uri in victims:
            assert index.fully_within(uri) == frozenset()
            assert index.complements_of(uri) == frozenset()
            assert index.dataset_of(uri) is None

    def test_stats(self, index, result, space):
        stats = index.stats()
        assert stats["full_pairs"] == len(result.full)
        assert stats["partial_pairs"] == len(result.partial)
        assert stats["observations"] == len(space)
        assert stats["datasets"] >= 1


class TestWithoutSpace:
    """An index over a bare store still answers point lookups."""

    def test_adjacency_only(self):
        space = build_example_space()
        result = compute_baseline(space)
        index = RelationshipIndex(result)
        a, b = next(iter(result.full))
        assert b in index.fully_contains(a)
        assert index.dataset_of(a) is None
        assert set(index.observations())  # pair endpoints are known
