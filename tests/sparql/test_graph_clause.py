"""Unit tests for SPARQL GRAPH patterns over RDF datasets."""

import pytest

from repro.rdf import EX, Graph, RDFDataset, parse_trig
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def dataset() -> RDFDataset:
    return parse_trig(
        """
        @prefix ex: <http://example.org/> .
        ex:g1 ex:publishedBy ex:Eurostat .
        ex:g2 ex:publishedBy ex:WorldBank .
        GRAPH ex:g1 { ex:a ex:p ex:b . ex:a ex:kind ex:K1 . }
        GRAPH ex:g2 { ex:c ex:p ex:d . }
        """
    )


class TestGraphClause:
    def test_variable_graph_enumerates(self, dataset):
        rows = query(dataset, "SELECT ?g ?s { GRAPH ?g { ?s ?p ?o } }")
        pairs = {(r[Var("g")], r[Var("s")]) for r in rows}
        assert (EX.g1, EX.a) in pairs
        assert (EX.g2, EX.c) in pairs

    def test_constant_graph(self, dataset):
        rows = query(
            dataset,
            "PREFIX ex: <http://example.org/> SELECT ?s { GRAPH ex:g1 { ?s ex:p ?o } }",
        )
        assert [r[Var("s")] for r in rows] == [EX.a]

    def test_unknown_graph_matches_nothing(self, dataset):
        rows = query(
            dataset,
            "PREFIX ex: <http://example.org/> SELECT ?s { GRAPH ex:nope { ?s ?p ?o } }",
        )
        assert rows == []

    def test_default_graph_patterns_dont_see_named(self, dataset):
        rows = query(dataset, "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:p ?o }")
        assert rows == []  # ex:p triples live only in named graphs

    def test_join_default_with_named(self, dataset):
        rows = query(
            dataset,
            "PREFIX ex: <http://example.org/> SELECT ?publisher ?s "
            "{ ?g ex:publishedBy ?publisher . GRAPH ?g { ?s ex:p ?o } }",
        )
        mapping = {r[Var("s")]: r[Var("publisher")] for r in rows}
        assert mapping == {EX.a: EX.Eurostat, EX.c: EX.WorldBank}

    def test_graph_variable_already_bound_is_respected(self, dataset):
        rows = query(
            dataset,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ VALUES ?g { ex:g2 } GRAPH ?g { ?s ?p ?o } }",
        )
        assert [r[Var("s")] for r in rows] == [EX.c]

    def test_plain_graph_has_no_named_graphs(self):
        g = Graph([(EX.a, EX.p, EX.b)])
        assert query(g, "SELECT ?s { GRAPH ?g { ?s ?p ?o } }") == []

    def test_filter_inside_graph_block(self, dataset):
        rows = query(
            dataset,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ GRAPH ?g { ?s ex:p ?o FILTER(?o = ex:d) } }",
        )
        assert [r[Var("s")] for r in rows] == [EX.c]

    def test_aggregate_over_graphs(self, dataset):
        rows = query(
            dataset,
            "SELECT ?g (COUNT(*) AS ?n) { GRAPH ?g { ?s ?p ?o } } GROUP BY ?g",
        )
        counts = {r[Var("g")].local_name(): r[Var("n")].to_python() for r in rows}
        assert counts == {"g1": 2, "g2": 1}
