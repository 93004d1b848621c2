"""Unit tests for CONSTRUCT queries."""

import pytest

from repro.errors import SPARQLSyntaxError
from repro.rdf import EX, Graph, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.parser import parse_query


@pytest.fixture
def graph() -> Graph:
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix skos: <http://www.w3.org/2004/02/skos/core#> .
        ex:Athens skos:broader ex:Greece .
        ex:Greece skos:broader ex:Europe .
        ex:Athens ex:label "Athens" .
        """
    )


class TestConstruct:
    def test_simple_rewrite(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?child ex:under ?parent } WHERE { ?child skos:broader ?parent }",
        )
        assert isinstance(built, Graph)
        assert (EX.Athens, EX.under, EX.Greece) in built
        assert (EX.Greece, EX.under, EX.Europe) in built
        assert len(built) == 2

    def test_multi_triple_template(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?c ex:under ?p . ?p ex:over ?c } WHERE { ?c skos:broader ?p }",
        )
        assert len(built) == 4
        assert (EX.Greece, EX.over, EX.Athens) in built

    def test_constant_triples_in_template(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ex:report ex:about ?c } WHERE { ?c skos:broader ex:Greece }",
        )
        assert (EX.report, EX.about, EX.Athens) in built

    def test_with_property_path_in_where(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?a ex:ancestor ?b } WHERE { ?a skos:broader+ ?b }",
        )
        assert (EX.Athens, EX.ancestor, EX.Europe) in built
        assert len(built) == 3

    def test_unbound_template_variable_skipped(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?c ex:under ?p . ?c ex:named ?name } "
            "WHERE { ?c skos:broader ?p OPTIONAL { ?c ex:label ?name } }",
        )
        # Only Athens has a label; Greece's ex:named triple is skipped.
        assert (EX.Athens, EX.named, None.__class__) not in built  # type sanity
        named = list(built.triples(None, EX.named, None))
        assert len(named) == 1

    def test_literal_in_subject_position_skipped(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?name ex:labelOf ?c } WHERE { ?c ex:label ?name }",
        )
        assert len(built) == 0

    def test_duplicates_collapse(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ex:x ex:constant ex:y } WHERE { ?c skos:broader ?p }",
        )
        assert len(built) == 1

    def test_where_keyword_optional(self, graph):
        built = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "CONSTRUCT { ?c ex:u ?p } { ?c skos:broader ?p }",
        )
        assert len(built) == 2

    def test_path_in_template_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("CONSTRUCT { ?a skos:broader+ ?b } WHERE { ?a ?p ?b }")

    def test_empty_template(self, graph):
        built = query(graph, "CONSTRUCT { } WHERE { ?s ?p ?o }")
        assert len(built) == 0
