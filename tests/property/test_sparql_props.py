"""Property-based tests for the SPARQL engine against reference models.

The path-closure semantics are checked against :mod:`networkx`
transitive closures on random edge sets.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


def node(i: int) -> URIRef:
    return URIRef(f"http://prop.example/n{i}")


PRED = URIRef("http://prop.example/edge")

edge_sets = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=0,
    max_size=15,
)


def graph_of(edges) -> Graph:
    g = Graph()
    for a, b in edges:
        g.add((node(a), PRED, node(b)))
    return g


@given(edge_sets, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_star_closure_matches_networkx(edges, start):
    g = graph_of(edges)
    rows = query(
        g,
        f"SELECT ?x {{ <{node(start)}> <{PRED}>* ?x }}",
    )
    ours = {row[Var("x")] for row in rows}
    digraph = nx.DiGraph(list(edges))
    digraph.add_node(start)
    expected = {node(start)} | {node(t) for t in nx.descendants(digraph, start)}
    assert ours == expected


@given(edge_sets, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_plus_closure_matches_networkx(edges, start):
    g = graph_of(edges)
    rows = query(g, f"SELECT ?x {{ <{node(start)}> <{PRED}>+ ?x }}")
    ours = {row[Var("x")] for row in rows}
    digraph = nx.DiGraph(list(edges))
    digraph.add_node(start)
    expected = {node(t) for t in nx.descendants(digraph, start)}
    if (start, start) in edges or any(
        start in part and len(part) > 1
        for part in nx.strongly_connected_components(digraph)
    ):
        expected.add(node(start))
    assert ours == expected


@given(edge_sets, st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_backward_closure_symmetric(edges, target):
    g = graph_of(edges)
    forward = {
        (row[Var("a")], row[Var("b")])
        for row in query(g, f"SELECT ?a ?b {{ ?a <{PRED}>* ?b }}")
    }
    backward = query(g, f"SELECT ?x {{ ?x <{PRED}>* <{node(target)}> }}")
    ours = {row[Var("x")] for row in backward}
    # Zero-length paths relate every term to itself, including a
    # constant endpoint that never occurs in the graph (SPARQL 1.1 ALP).
    expected = {a for a, b in forward if b == node(target)} | {node(target)}
    assert ours == expected


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_bgp_join_matches_manual_product(edges):
    g = graph_of(edges)
    rows = query(g, f"SELECT ?a ?b ?c {{ ?a <{PRED}> ?b . ?b <{PRED}> ?c }}")
    ours = {(row[Var("a")], row[Var("b")], row[Var("c")]) for row in rows}
    expected = {
        (node(a), node(b), node(c))
        for a, b in edges
        for b2, c in edges
        if b == b2
    }
    assert ours == expected


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_distinct_removes_duplicates(edges):
    g = graph_of(edges)
    plain = query(g, f"SELECT ?a {{ ?a <{PRED}> ?b }}")
    distinct = query(g, f"SELECT DISTINCT ?a {{ ?a <{PRED}> ?b }}")
    assert {row[Var("a")] for row in plain} == {row[Var("a")] for row in distinct}
    assert len(distinct) == len({row[Var("a")] for row in distinct})


@given(edge_sets)
@settings(max_examples=30, deadline=None)
def test_not_exists_complements_exists(edges):
    g = graph_of(edges)
    all_sources = {row[Var("a")] for row in query(g, f"SELECT ?a {{ ?a <{PRED}> ?b }}")}
    with_loop = {
        row[Var("a")]
        for row in query(
            g, f"SELECT ?a {{ ?a <{PRED}> ?b FILTER EXISTS {{ ?a <{PRED}> ?a }} }}"
        )
    }
    without_loop = {
        row[Var("a")]
        for row in query(
            g, f"SELECT ?a {{ ?a <{PRED}> ?b FILTER NOT EXISTS {{ ?a <{PRED}> ?a }} }}"
        )
    }
    assert with_loop | without_loop == all_sources
    assert with_loop & without_loop == set()
