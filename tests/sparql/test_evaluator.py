"""Unit tests for SPARQL evaluation: BGPs, filters, solution modifiers."""

import pytest

from repro.rdf import EX, Graph, Literal, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def graph() -> Graph:
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        ex:alice a ex:Person ; ex:age 30 ; ex:knows ex:bob, ex:carol ; ex:name "Alice" .
        ex:bob a ex:Person ; ex:age 25 ; ex:knows ex:carol ; ex:name "Bob" .
        ex:carol a ex:Person ; ex:age 35 ; ex:name "Carol"@en .
        ex:dave a ex:Robot ; ex:name "Dave" .
        """
    )


def bindings(rows, name):
    return [row[Var(name)] for row in rows]


class TestBGP:
    def test_single_pattern(self, graph):
        rows = query(graph, "PREFIX ex: <http://example.org/> SELECT ?s { ?s a ex:Person }")
        assert len(rows) == 3

    def test_join_two_patterns(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?a ?b { ?a ex:knows ?b . ?b a ex:Person }",
        )
        assert len(rows) == 3

    def test_shared_variable_consistency(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?x { ?x ex:knows ?x }",
        )
        assert rows == []

    def test_variable_predicate(self, graph):
        rows = query(graph, "PREFIX ex: <http://example.org/> SELECT ?p { ex:dave ?p ?o }")
        assert len(rows) == 2

    def test_no_match(self, graph):
        rows = query(graph, "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:zzz ?o }")
        assert rows == []

    def test_ground_triple_as_guard(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ex:alice a ex:Person . ?s a ex:Robot }",
        )
        assert bindings(rows, "s") == [EX.dave]


class TestFilters:
    def test_numeric_comparison(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:age ?a FILTER(?a > 28) }",
        )
        assert sorted(bindings(rows, "s")) == [EX.alice, EX.carol]

    def test_inequality_on_uris(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?a ?b "
            "{ ?a a ex:Person . ?b a ex:Person FILTER(?a != ?b) }",
        )
        assert len(rows) == 6

    def test_arithmetic(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:age ?a FILTER(?a * 2 = 50) }",
        )
        assert bindings(rows, "s") == [EX.bob]

    def test_unbound_variable_filter_excludes(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s a ex:Person FILTER(?zzz = 1) }",
        )
        assert rows == []

    def test_bound(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s a ex:Person OPTIONAL { ?s ex:knows ?k } FILTER(!BOUND(?k)) }",
        )
        assert bindings(rows, "s") == [EX.carol]

    def test_not_exists(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s a ex:Person FILTER NOT EXISTS { ?s ex:knows ?k } }",
        )
        assert bindings(rows, "s") == [EX.carol]

    def test_exists(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s a ex:Person FILTER EXISTS { ?s ex:knows ex:carol } }",
        )
        assert sorted(bindings(rows, "s")) == [EX.alice, EX.bob]

    def test_nested_not_exists(self, graph):
        # People who know everyone they could know... double negation.
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s a ex:Person "
            "FILTER NOT EXISTS { ?o a ex:Person . FILTER(?o != ?s) "
            "FILTER NOT EXISTS { ?s ex:knows ?o } } }",
        )
        assert bindings(rows, "s") == [EX.alice]

    def test_regex(self, graph):
        rows = query(
            graph,
            'PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:name ?n FILTER REGEX(?n, "^[AB]") }',
        )
        assert len(rows) == 2

    def test_in(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s a ?t FILTER(?t IN (ex:Robot)) }",
        )
        assert bindings(rows, "s") == [EX.dave]

    def test_or_error_recovery(self, graph):
        # Left side errors (unbound), right side true -> solution kept.
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s a ex:Robot FILTER(?zz = 1 || 1 = 1) }",
        )
        assert len(rows) == 1


class TestOptionalUnionValues:
    def test_optional_extends_when_present(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?k "
            "{ ?s a ex:Person OPTIONAL { ?s ex:knows ?k } }",
        )
        with_k = [r for r in rows if Var("k") in r]
        without_k = [r for r in rows if Var("k") not in r]
        assert len(with_k) == 3 and len(without_k) == 1

    def test_union(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { { ?s a ex:Robot } UNION { ?s ex:age 30 } }",
        )
        assert sorted(bindings(rows, "s")) == [EX.alice, EX.dave]

    def test_values_restricts(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ VALUES ?s { ex:alice ex:dave } ?s a ex:Person }",
        )
        assert bindings(rows, "s") == [EX.alice]


class TestSolutionModifiers:
    def test_distinct(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT DISTINCT ?t { ?s a ?t }",
        )
        assert len(rows) == 2

    def test_order_by_numeric(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?a { ?s ex:age ?a } ORDER BY ?a",
        )
        assert bindings(rows, "s") == [EX.bob, EX.alice, EX.carol]

    def test_order_by_desc(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?a { ?s ex:age ?a } ORDER BY DESC(?a)",
        )
        assert bindings(rows, "s") == [EX.carol, EX.alice, EX.bob]

    def test_limit_offset(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s ?a { ?s ex:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1",
        )
        assert bindings(rows, "s") == [EX.alice]

    def test_projection_drops_variables(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:age ?a }",
        )
        assert all(set(row) == {Var("s")} for row in rows)

    def test_ask_true_false(self, graph):
        assert query(graph, "PREFIX ex: <http://example.org/> ASK { ex:dave a ex:Robot }") is True
        assert query(graph, "PREFIX ex: <http://example.org/> ASK { ex:dave a ex:Person }") is False


class TestLiteralHandling:
    def test_typed_literal_match(self, graph):
        rows = query(graph, "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:age 30 }")
        assert bindings(rows, "s") == [EX.alice]

    def test_language_literal_match(self, graph):
        rows = query(
            graph,
            'PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:name "Carol"@en }',
        )
        assert bindings(rows, "s") == [EX.carol]

    def test_str_function(self, graph):
        rows = query(
            graph,
            'PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:name ?n FILTER(STR(?n) = "Carol") }',
        )
        assert bindings(rows, "s") == [EX.carol]
