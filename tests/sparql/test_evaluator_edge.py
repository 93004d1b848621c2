"""Additional evaluator edge cases: modifier interplay, nesting, joins."""

import pytest

from repro.rdf import EX, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def graph():
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        ex:a ex:score 3 ; ex:tag ex:T1 .
        ex:b ex:score 1 ; ex:tag ex:T1 ; ex:tag ex:T2 .
        ex:c ex:score 2 .
        ex:d ex:label "delta" .
        """
    )


class TestModifierInterplay:
    def test_order_then_distinct_then_limit(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT DISTINCT ?s { ?s ex:tag ?t } ORDER BY ?s LIMIT 1",
        )
        assert [r[Var("s")] for r in rows] == [EX.a]

    def test_order_by_unbound_sorts_first(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s ?t { ?s ex:score ?v OPTIONAL { ?s ex:tag ?t } } ORDER BY ?t ?s",
        )
        # ex:c has no tag -> unbound sorts before bound terms.
        assert rows[0][Var("s")] == EX.c

    def test_offset_beyond_results(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:score ?v } OFFSET 10",
        )
        assert rows == []

    def test_limit_zero(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:score ?v } LIMIT 0",
        )
        assert rows == []


class TestNesting:
    def test_optional_inside_optional(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?t ?l "
            "{ ?s ex:score ?v OPTIONAL { ?s ex:tag ?t OPTIONAL { ?s ex:label ?l } } }",
        )
        assert len(rows) == 4  # a, b(T1), b(T2), c

    def test_union_inside_optional(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?x "
            "{ ?s ex:score ?v OPTIONAL { { ?s ex:tag ?x } UNION { ?s ex:label ?x } } }",
        )
        assert any(Var("x") not in row for row in rows)  # ex:c keeps bare row

    def test_exists_referencing_outer_binding(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s ex:score ?v FILTER EXISTS { ?s ex:tag ex:T2 } }",
        )
        assert [r[Var("s")] for r in rows] == [EX.b]


class TestValuesJoins:
    def test_multi_row_values_join(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?v "
            "{ VALUES (?s) { (ex:a) (ex:c) (ex:missing) } ?s ex:score ?v }",
        )
        assert {r[Var("s")] for r in rows} == {EX.a, EX.c}

    def test_values_after_patterns_filters(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s ex:score ?v VALUES ?v { 1 2 } }",
        )
        assert {r[Var("s")] for r in rows} == {EX.b, EX.c}


class TestMixedTypeOrdering:
    def test_numbers_sort_before_other_literals(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?o { ?s ?p ?o "
            "FILTER(ISLITERAL(?o)) } ORDER BY ?o",
        )
        values = [r[Var("o")] for r in rows]
        numeric = [v for v in values if v.datatype is not None]
        assert values[: len(numeric)] == sorted(numeric, key=lambda t: t.to_python())
