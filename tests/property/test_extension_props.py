"""Property-based tests for the extension features.

Covers the store round-trip, incremental add/remove consistency, the
streaming baseline's block-size invariance and aggregate evaluation
against a plain-Python reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compute_baseline, compute_baseline_streaming, remove_observations, update_relationships
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var
from repro.store import dumps_relationships, loads_relationships

from tests.property.strategies import observation_spaces


@given(observation_spaces(max_observations=15))
@settings(max_examples=20, deadline=None)
def test_store_round_trip(space):
    result = compute_baseline(space, collect_partial_dimensions=True)
    loaded = loads_relationships(dumps_relationships(result))
    assert loaded == result
    assert loaded.degrees == result.degrees
    assert loaded.partial_map == result.partial_map


@given(observation_spaces(max_observations=15), st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_streaming_block_size_invariance(space, block_size):
    full = compute_baseline(space)
    assert compute_baseline_streaming(space, block_size=block_size) == full


@given(observation_spaces(max_observations=14), st.integers(min_value=0, max_value=13))
@settings(max_examples=20, deadline=None)
def test_incremental_add_matches_batch(space, split_at):
    n = len(space)
    if n < 2:
        return
    split = min(split_at, n - 1) or 1
    base = space.select(range(split))
    result = compute_baseline(base)
    arrivals = [
        (r.uri, r.dataset, dict(zip(space.dimensions, r.codes)), r.measures)
        for r in space.observations[split:]
    ]
    update_relationships(base, result, arrivals)
    assert result == compute_baseline(space)


@given(observation_spaces(max_observations=14), st.sets(st.integers(0, 13), max_size=5))
@settings(max_examples=20, deadline=None)
def test_removal_matches_batch(space, victim_indices):
    n = len(space)
    victims = [space.observations[i].uri for i in victim_indices if i < n]
    if not victims:
        return
    result = compute_baseline(space)
    new_space, result = remove_observations(space, result, victims)
    assert result == compute_baseline(new_space)


count_values = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-100, 100)), min_size=0, max_size=25
)


@given(count_values)
@settings(max_examples=40, deadline=None)
def test_aggregates_match_python_reference(pairs):
    graph = Graph()
    groups: dict[int, list[int]] = {}
    pred = URIRef("http://prop.example/value")
    kind = URIRef("http://prop.example/kind")
    for index, (group, value) in enumerate(pairs):
        subject = URIRef(f"http://prop.example/row{index}")
        graph.add((subject, kind, URIRef(f"http://prop.example/g{group}")))
        graph.add((subject, pred, Literal(value)))
        groups.setdefault(group, []).append(value)
    rows = query(
        graph,
        f"SELECT ?g (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (MIN(?v) AS ?low) (MAX(?v) AS ?high) "
        f"{{ ?s <{kind}> ?g ; <{pred}> ?v }} GROUP BY ?g",
    )
    got = {
        row[Var("g")].local_name(): (
            row[Var("n")].to_python(),
            row[Var("sum")].to_python(),
            row[Var("low")].to_python(),
            row[Var("high")].to_python(),
        )
        for row in rows
    }
    expected = {
        f"g{group}": (len(vals), sum(vals), min(vals), max(vals))
        for group, vals in groups.items()
    }
    assert got == expected
