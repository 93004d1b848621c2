"""Unit tests for the BGP join-order optimizer."""

import pytest

from repro.rdf import Graph, parse_turtle
from repro.paper.sparql import parse_query, query
from repro.paper.sparql.ast import Filter, GroupPattern, TriplePattern, Var
from repro.paper.sparql.optimizer import estimate_pattern, optimize_group


@pytest.fixture
def graph() -> Graph:
    # 1 rare triple, many common ones.
    text = ["@prefix ex: <http://example.org/> ."]
    text.append("ex:special ex:rare ex:unique .")
    for i in range(30):
        text.append(f"ex:n{i} ex:common ex:target .")
        text.append(f"ex:n{i} a ex:Node .")
    return parse_turtle("\n".join(text))


def patterns_of(group: GroupPattern):
    return [e for e in group.elements if isinstance(e, TriplePattern)]


class TestEstimates:
    def test_constant_predicate_counts(self, graph):
        q = parse_query("PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:common ?o }")
        pattern = q.where.elements[0]
        assert estimate_pattern(graph, pattern, set()) == 30.0

    def test_rare_pattern_cheaper(self, graph):
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:common ?o . ?s ex:rare ?r }"
        )
        common, rare = patterns_of(q.where)
        assert estimate_pattern(graph, rare, set()) < estimate_pattern(graph, common, set())

    def test_bound_variable_discount(self, graph):
        q = parse_query("PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:common ?o }")
        pattern = q.where.elements[0]
        free = estimate_pattern(graph, pattern, set())
        bound = estimate_pattern(graph, pattern, {Var("s")})
        assert bound < free

    def test_paths_estimated_pessimistically(self, graph):
        q = parse_query("PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:common* ?o }")
        path_pattern = q.where.elements[0]
        q2 = parse_query("PREFIX ex: <http://example.org/> SELECT ?s { ?s ex:common ?o }")
        plain = q2.where.elements[0]
        assert estimate_pattern(graph, path_pattern, set()) > estimate_pattern(graph, plain, set())


class TestReordering:
    def test_selective_pattern_moves_first(self, graph):
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s { ?s a ex:Node . ?s ex:rare ?r }"
        )
        optimized = optimize_group(graph, q.where)
        ordered = patterns_of(optimized)
        assert ordered[0].predicate.local_name() == "rare"

    def test_connectivity_preferred_over_raw_cost(self, graph):
        # After binding ?s via the rare pattern, the connected common
        # pattern should come before a disconnected cheap one.
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s ex:common ?o . ?x ex:rare ?y . ?s a ex:Node }"
        )
        optimized = optimize_group(graph, q.where)
        ordered = patterns_of(optimized)
        assert ordered[0].predicate.local_name() == "rare"
        # remaining two stay connected through ?s
        assert {p.predicate.local_name() for p in ordered[1:]} == {"common", "type"}

    def test_filters_act_as_barriers(self, graph):
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s ex:common ?o FILTER(?o = ex:target) ?s ex:rare ?r }"
        )
        optimized = optimize_group(graph, q.where)
        kinds = [type(e).__name__ for e in optimized.elements]
        assert kinds == ["TriplePattern", "Filter", "TriplePattern"]

    def test_nested_groups_optimized(self, graph):
        q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s "
            "{ ?s ex:rare ?r OPTIONAL { ?s a ex:Node . ?s ex:common ?o } }"
        )
        optimized = optimize_group(graph, q.where)
        assert len(optimized.elements) == 2


class TestSemanticsPreserved:
    QUERIES = [
        "SELECT ?s { ?s a ex:Node . ?s ex:common ?o }",
        "SELECT ?s ?r { ?s ex:common ?o . ?x ex:rare ?r . ?s a ex:Node }",
        "SELECT ?s { ?s ex:common ?o FILTER NOT EXISTS { ?s ex:rare ?r } }",
        "SELECT ?s { { ?s ex:rare ?o } UNION { ?s ex:common ?o } }",
        "SELECT ?s { ?s a ex:Node OPTIONAL { ?s ex:rare ?r } FILTER(!BOUND(?r)) }",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_optimized_equals_naive(self, graph, text):
        full = "PREFIX ex: <http://example.org/> " + text

        def canonical(rows):
            return sorted(
                tuple(sorted((v.name, t) for v, t in row.items())) for row in rows
            )

        assert canonical(query(graph, full, optimize=True)) == canonical(
            query(graph, full, optimize=False)
        )
