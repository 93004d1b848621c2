"""Unit tests for GROUP BY / aggregate evaluation."""

import pytest

from repro.errors import SPARQLEvaluationError
from repro.rdf import Graph, parse_turtle
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


@pytest.fixture
def cities() -> Graph:
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        ex:athens ex:country ex:GR ; ex:pop 660 .
        ex:ioannina ex:country ex:GR ; ex:pop 65 .
        ex:rome ex:country ex:IT ; ex:pop 2800 .
        ex:milan ex:country ex:IT ; ex:pop 1350 .
        ex:austin ex:country ex:US ; ex:pop 950 .
        """
    )


def by_country(rows, value_var):
    return {
        row[Var("c")].local_name(): row[Var(value_var)].to_python()
        for row in rows
    }


class TestGroupBy:
    def test_count_per_group(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s ex:country ?c } GROUP BY ?c",
        )
        assert by_country(rows, "n") == {"GR": 2, "IT": 2, "US": 1}

    def test_sum_avg(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?c (SUM(?p) AS ?total) (AVG(?p) AS ?mean) "
            "WHERE { ?s ex:country ?c ; ex:pop ?p } GROUP BY ?c",
        )
        totals = by_country(rows, "total")
        assert totals == {"GR": 725, "IT": 4150, "US": 950}
        means = by_country(rows, "mean")
        assert means["IT"] == pytest.approx(2075.0)

    def test_min_max(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?c (MIN(?p) AS ?low) (MAX(?p) AS ?high) "
            "WHERE { ?s ex:country ?c ; ex:pop ?p } GROUP BY ?c",
        )
        assert by_country(rows, "low")["GR"] == 65
        assert by_country(rows, "high")["GR"] == 660

    def test_bare_variable_must_be_grouped(self, cities):
        with pytest.raises(SPARQLEvaluationError):
            query(
                cities,
                "PREFIX ex: <http://example.org/> "
                "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:country ?c } GROUP BY ?c",
            )

    def test_group_key_in_output(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?c WHERE { ?s ex:country ?c } GROUP BY ?c",
        )
        assert len(rows) == 3


class TestImplicitGroup:
    def test_count_star(self, cities):
        rows = query(cities, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        assert rows[0][Var("n")].to_python() == 10

    def test_empty_match_still_yields_row(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> SELECT (COUNT(*) AS ?n) WHERE { ?s ex:nothing ?o }",
        )
        assert rows[0][Var("n")].to_python() == 0

    def test_sum_of_empty_is_zero(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> SELECT (SUM(?p) AS ?t) WHERE { ?s ex:nothing ?p }",
        )
        assert rows[0][Var("t")].to_python() == 0

    def test_avg_of_empty_unbound(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> SELECT (AVG(?p) AS ?m) WHERE { ?s ex:nothing ?p }",
        )
        assert Var("m") not in rows[0]


class TestDistinctAndSample:
    def test_count_distinct(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s ex:country ?c }",
        )
        assert rows[0][Var("n")].to_python() == 3

    def test_sample_returns_some_value(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT (SAMPLE(?c) AS ?any) WHERE { ?s ex:country ?c }",
        )
        assert rows[0][Var("any")].local_name() in {"GR", "IT", "US"}

    def test_non_numeric_min_uses_term_order(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT (MIN(?c) AS ?first) WHERE { ?s ex:country ?c }",
        )
        assert rows[0][Var("first")].local_name() == "GR"


class TestExpressionAliases:
    def test_arithmetic_alias(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT (?p / 10 AS ?tens) WHERE { ex:athens ex:pop ?p }",
        )
        assert rows[0][Var("tens")].to_python() == 66

    def test_alias_mixed_with_bare_vars(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s (?p + 1 AS ?incremented) WHERE { ?s ex:pop ?p } ORDER BY ?s LIMIT 1",
        )
        assert rows[0][Var("incremented")].to_python() == 661

    def test_error_in_alias_leaves_unbound(self, cities):
        rows = query(
            cities,
            "PREFIX ex: <http://example.org/> "
            "SELECT (?c + 1 AS ?bad) WHERE { ?s ex:country ?c } LIMIT 1",
        )
        assert Var("bad") not in rows[0]
