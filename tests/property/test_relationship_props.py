"""Property-based tests for relationship-computation invariants.

These are the core guarantees of the paper's algorithms:

* all lossless methods produce identical relationship sets,
* full and partial containment are disjoint,
* dimension-level full containment is a preorder (reflexive+transitive),
* complementarity is symmetric and transitive (vector equality),
* the clustering method only ever under-approximates,
* skyline-from-relationships matches the direct skyline.
"""

from hypothesis import given, settings

from repro.core.baseline import compute_baseline
from repro.paper.cluster_method import compute_clustering
from repro.core.cubemask import compute_cubemask
from repro.core.skyline import skyline, skyline_from_relationships

from tests.property.strategies import observation_spaces


@given(observation_spaces())
@settings(max_examples=30, deadline=None)
def test_baseline_equals_cubemask(space):
    assert compute_baseline(space) == compute_cubemask(space)


@given(observation_spaces(max_observations=15))
@settings(max_examples=20, deadline=None)
def test_backends_agree(space):
    assert compute_baseline(space, backend="numpy") == compute_baseline(space, backend="python")


@given(observation_spaces())
@settings(max_examples=30, deadline=None)
def test_full_partial_disjoint(space):
    result = compute_baseline(space)
    assert not (result.full & result.partial)


@given(observation_spaces())
@settings(max_examples=30, deadline=None)
def test_no_self_pairs(space):
    result = compute_baseline(space)
    assert all(a != b for a, b in result.full)
    assert all(a != b for a, b in result.partial)
    assert all(a != b for a, b in result.complementary)


@given(observation_spaces(max_observations=12))
@settings(max_examples=20, deadline=None)
def test_dim_full_is_preorder(space):
    n = len(space)
    for a in range(n):
        assert space.dim_full(a, a)
        for b in range(n):
            if not space.dim_full(a, b):
                continue
            for c in range(n):
                if space.dim_full(b, c):
                    assert space.dim_full(a, c)


@given(observation_spaces(max_observations=12))
@settings(max_examples=20, deadline=None)
def test_complementarity_symmetric_transitive(space):
    n = len(space)
    for a in range(n):
        for b in range(n):
            if space.is_complementary(a, b):
                assert space.is_complementary(b, a)
                for c in range(n):
                    if c not in (a, b) and space.is_complementary(b, c):
                        assert space.is_complementary(a, c)


@given(observation_spaces())
@settings(max_examples=30, deadline=None)
def test_partial_degrees_in_open_interval(space):
    result = compute_baseline(space)
    for pair in result.partial:
        degree = result.degree(*pair)
        assert degree is not None
        assert 0.0 < degree < 1.0


@given(observation_spaces(max_observations=20))
@settings(max_examples=15, deadline=None)
def test_clustering_under_approximates(space):
    if len(space) == 0:
        return
    truth = compute_baseline(space)
    found = compute_clustering(space, algorithm="kmeans", seed=0, min_sample=2)
    assert found.full <= truth.full
    assert found.partial <= truth.partial
    assert found.complementary <= truth.complementary


@given(observation_spaces(max_observations=15))
@settings(max_examples=15, deadline=None)
def test_skyline_consistency(space):
    relationships = compute_baseline(space)
    assert set(skyline(space)) == set(skyline_from_relationships(space, relationships))


@given(observation_spaces(max_observations=15))
@settings(max_examples=15, deadline=None)
def test_mutual_full_dimension_containment_is_complementarity(space):
    n = len(space)
    for a in range(n):
        for b in range(n):
            if a != b:
                mutual = space.dim_full(a, b) and space.dim_full(b, a)
                assert mutual == space.is_complementary(a, b)
