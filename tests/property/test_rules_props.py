"""Property-based tests for the rule engine against reference models."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef
from repro.paper.rules import RuleEngine, parse_rules


def node(i: int) -> URIRef:
    return URIRef(f"http://prop.example/n{i}")


EDGE = URIRef("http://prop.example/edge")

edge_sets = st.sets(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=0,
    max_size=12,
)


def graph_of(edges) -> Graph:
    g = Graph()
    for a, b in edges:
        g.add((node(a), EDGE, node(b)))
    return g


TRANSITIVE = parse_rules(
    f"[t: (?a <{EDGE}> ?b), (?b <{EDGE}> ?c) -> (?a <{EDGE}> ?c)]"
)


@given(edge_sets)
@settings(max_examples=40, deadline=None)
def test_transitive_closure_matches_networkx(edges):
    closed = RuleEngine(TRANSITIVE).run(graph_of(edges))
    ours = {(s, o) for s, _, o in closed.triples(None, EDGE, None)}
    digraph = nx.DiGraph(list(edges))
    expected = set()
    for start in digraph.nodes:
        for target in nx.descendants(digraph, start):
            expected.add((node(start), node(target)))
        if (start, start) in edges:
            expected.add((node(start), node(start)))
    # nx.descendants excludes self unless reachable via a cycle; the
    # closure of edges includes (x, x) whenever x lies on a cycle.
    for component in nx.strongly_connected_components(digraph):
        if len(component) > 1:
            for member in component:
                expected.add((node(member), node(member)))
    assert ours == expected


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_closure_is_idempotent(edges):
    engine = RuleEngine(TRANSITIVE)
    once = engine.run(graph_of(edges))
    twice = engine.run(once)
    assert once == twice


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_closure_monotone_in_input(edges):
    """Adding a triple never removes derived facts."""
    engine = RuleEngine(TRANSITIVE)
    base = graph_of(edges)
    closed_small = engine.run(base)
    extended = base.copy()
    extended.add((node(0), EDGE, node(6)))
    closed_big = engine.run(extended)
    assert all(t in closed_big for t in closed_small)


@given(edge_sets)
@settings(max_examples=25, deadline=None)
def test_guarded_rule_subset_of_unguarded(edges):
    flag = URIRef("http://prop.example/flag")
    guarded = parse_rules(
        f"[g: (?a <{EDGE}> ?b), notEqual(?a, ?b) -> (?a <{flag}> ?b)]"
    )
    unguarded = parse_rules(f"[u: (?a <{EDGE}> ?b) -> (?a <{flag}> ?b)]")
    graph = graph_of(edges)
    flags_guarded = {
        (s, o) for s, _, o in RuleEngine(guarded).run(graph).triples(None, flag, None)
    }
    flags_all = {
        (s, o) for s, _, o in RuleEngine(unguarded).run(graph).triples(None, flag, None)
    }
    assert flags_guarded == {(s, o) for s, o in flags_all if s != o}
