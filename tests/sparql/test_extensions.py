"""Unit tests for BIND, MINUS, HAVING, IF and COALESCE."""

import pytest

from repro.errors import SPARQLEvaluationError
from repro.rdf import EX, Graph, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def graph() -> Graph:
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        ex:a ex:pop 10 ; ex:kind ex:Small .
        ex:b ex:pop 200 ; ex:kind ex:Big .
        ex:c ex:pop 3000 .
        """
    )


class TestBind:
    def test_bind_computes_value(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s ?double { ?s ex:pop ?p BIND(?p * 2 AS ?double) } ORDER BY ?s",
        )
        assert rows[0][Var("double")].to_python() == 20

    def test_bind_usable_in_later_filter(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s { ?s ex:pop ?p BIND(?p * 2 AS ?d) FILTER(?d > 300) }",
        )
        assert sorted(r[Var("s")] for r in rows) == [EX.b, EX.c]

    def test_bind_error_leaves_unbound(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s ?bad { ?s ex:kind ?k BIND(?k + 1 AS ?bad) }",
        )
        assert all(Var("bad") not in row for row in rows)

    def test_rebinding_rejected(self, graph):
        with pytest.raises(SPARQLEvaluationError):
            query(
                graph,
                "PREFIX ex: <http://example.org/> "
                "SELECT ?s { ?s ex:pop ?p BIND(1 AS ?p) }",
            )


class TestMinus:
    def test_removes_compatible_solutions(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s { ?s ex:pop ?p MINUS { ?s ex:kind ex:Big } }",
        )
        assert sorted(r[Var("s")] for r in rows) == [EX.a, EX.c]

    def test_disjoint_domains_remove_nothing(self, graph):
        # MINUS with no shared variables never removes (SPARQL semantics).
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s { ?s ex:pop ?p MINUS { ?x ex:kind ex:Big } }",
        )
        assert len(rows) == 3

    def test_minus_vs_not_exists_on_shared(self, graph):
        via_minus = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s { ?s ex:pop ?p MINUS { ?s ex:kind ?k } }",
        )
        via_not_exists = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s { ?s ex:pop ?p FILTER NOT EXISTS { ?s ex:kind ?k } }",
        )
        assert {r[Var("s")] for r in via_minus} == {r[Var("s")] for r in via_not_exists}


class TestHaving:
    def test_having_filters_groups(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s (SUM(?p) AS ?t) WHERE { ?s ex:pop ?p } GROUP BY ?s HAVING(?t > 100)",
        )
        assert sorted(r[Var("s")] for r in rows) == [EX.b, EX.c]

    def test_having_with_count(self, graph):
        rows = query(
            graph,
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING(?n >= 2)",
        )
        assert sorted(r[Var("s")] for r in rows) == [EX.a, EX.b]

    def test_multiple_having_conditions(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s (SUM(?p) AS ?t) WHERE { ?s ex:pop ?p } GROUP BY ?s "
            "HAVING(?t > 100) HAVING(?t < 1000)",
        )
        assert [r[Var("s")] for r in rows] == [EX.b]


class TestIfCoalesce:
    def test_if_branches(self, graph):
        rows = query(
            graph,
            'PREFIX ex: <http://example.org/> '
            'SELECT ?s (IF(?p > 100, "big", "small") AS ?size) { ?s ex:pop ?p } ORDER BY ?s',
        )
        sizes = [r[Var("size")].lexical for r in rows]
        assert sizes == ["small", "big", "big"]

    def test_if_is_lazy(self, graph):
        # The untaken branch (?k + 1 on a URI) must not raise.
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s (IF(1 = 1, ?p, ?p + ex:a) AS ?v) { ?s ex:pop ?p } ORDER BY ?s",
        )
        assert rows[0][Var("v")].to_python() == 10

    def test_coalesce_first_bound(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            'SELECT ?s (COALESCE(?k, "none") AS ?kind) '
            "{ ?s ex:pop ?p OPTIONAL { ?s ex:kind ?k } } ORDER BY ?s",
        )
        kinds = [r[Var("kind")] for r in rows]
        assert kinds[0] == EX.Small
        assert kinds[2].lexical == "none"

    def test_coalesce_all_error_unbound(self, graph):
        rows = query(
            graph,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s (COALESCE(?nope) AS ?v) { ?s ex:pop ?p } LIMIT 1",
        )
        assert Var("v") not in rows[0]
