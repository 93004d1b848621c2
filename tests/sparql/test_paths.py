"""Unit tests for property-path evaluation."""

import pytest

from repro.rdf import EX, Graph, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def chain() -> Graph:
    """Athens -> Greece -> Europe -> World plus one sibling branch."""
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix skos: <http://www.w3.org/2004/02/skos/core#> .
        ex:Athens skos:broader ex:Greece .
        ex:Greece skos:broader ex:Europe .
        ex:Europe skos:broader ex:World .
        ex:Rome skos:broader ex:Italy .
        ex:Italy skos:broader ex:Europe .
        ex:Athens ex:label "Athens" .
        """
    )


def values(rows, name="x"):
    return sorted(row[Var(name)] for row in rows)


class TestBasicPaths:
    def test_sequence(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens skos:broader/skos:broader ?x }",
        )
        assert values(rows) == [EX.Europe]

    def test_alternative(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens skos:broader|ex:label ?x }",
        )
        assert len(rows) == 2

    def test_inverse(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Europe ^skos:broader ?x }",
        )
        assert values(rows) == [EX.Greece, EX.Italy]

    def test_inverse_of_sequence_equivalence(self, chain):
        forward = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ?x skos:broader/skos:broader ex:World }",
        )
        assert values(forward) == [EX.Greece, EX.Italy]


class TestClosures:
    def test_star_includes_self(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens skos:broader* ?x }",
        )
        assert values(rows) == [EX.Athens, EX.Europe, EX.Greece, EX.World]

    def test_plus_excludes_self(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens skos:broader+ ?x }",
        )
        assert values(rows) == [EX.Europe, EX.Greece, EX.World]

    def test_question_mark(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens skos:broader? ?x }",
        )
        assert values(rows) == [EX.Athens, EX.Greece]

    def test_star_backward(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ?x skos:broader* ex:Europe }",
        )
        assert values(rows) == [EX.Athens, EX.Europe, EX.Greece, EX.Italy, EX.Rome]

    def test_star_handles_cycles(self):
        g = parse_turtle(
            """
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b . ex:b ex:p ex:a .
            """
        )
        rows = query(g, "PREFIX ex: <http://example.org/> SELECT ?x { ex:a ex:p* ?x }")
        assert values(rows) == [EX.a, EX.b]

    def test_plus_reaches_origin_through_cycle(self):
        g = parse_turtle(
            """
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b . ex:b ex:p ex:a .
            """
        )
        rows = query(g, "PREFIX ex: <http://example.org/> SELECT ?x { ex:a ex:p+ ?x }")
        assert values(rows) == [EX.a, EX.b]

    def test_grouped_sequence_star(self, chain):
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?x { ex:Athens (skos:broader/skos:broader)* ?x }",
        )
        assert values(rows) == [EX.Athens, EX.Europe]


class TestUnboundEnds:
    def test_both_ends_unbound_link(self, chain):
        rows = query(chain, "SELECT ?a ?b { ?a skos:broader ?b }")
        assert len(rows) == 5

    def test_both_ends_unbound_star_same_var(self, chain):
        # ?x broader* ?x must bind every node to itself only.
        rows = query(chain, "SELECT ?x { ?x skos:broader* ?x }")
        names = values(rows)
        assert EX.Athens in names and EX.World in names
        assert len(rows) == len(set(names))

    def test_strict_path_pattern_from_paper(self, chain):
        # The paper's partial-containment path: one or more broader steps.
        rows = query(
            chain,
            "PREFIX ex: <http://example.org/> SELECT ?a { ?a skos:broader/skos:broader* ex:World }",
        )
        assert values(rows, "a") == [EX.Athens, EX.Europe, EX.Greece, EX.Italy, EX.Rome]
