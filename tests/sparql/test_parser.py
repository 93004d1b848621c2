"""Unit tests for the SPARQL parser."""

import pytest

from repro.errors import SPARQLSyntaxError
from repro.rdf import RDF, URIRef
from repro.paper.sparql.ast import (
    AskQuery,
    BinaryExpr,
    Exists,
    Filter,
    GroupPattern,
    OptionalPattern,
    PathAlternative,
    PathLink,
    PathMod,
    PathSequence,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    Var,
)
from repro.paper.sparql.parser import parse_query


class TestSelectClause:
    def test_variables(self):
        q = parse_query("SELECT ?a ?b WHERE { ?a ?p ?b }")
        assert isinstance(q, SelectQuery)
        assert q.variables == (Var("a"), Var("b"))

    def test_star(self):
        q = parse_query("SELECT * WHERE { ?a ?p ?b }")
        assert q.variables == ()

    def test_distinct(self):
        q = parse_query("SELECT DISTINCT ?a WHERE { ?a ?p ?b }")
        assert q.distinct is True

    def test_where_keyword_optional(self):
        q = parse_query("SELECT ?a { ?a ?p ?b }")
        assert len(q.where.elements) == 1

    def test_limit_offset(self):
        q = parse_query("SELECT ?a WHERE { ?a ?p ?b } LIMIT 10 OFFSET 5")
        assert q.limit == 10 and q.offset == 5

    def test_order_by(self):
        q = parse_query("SELECT ?a WHERE { ?a ?p ?b } ORDER BY DESC(?a) ?b")
        assert q.order_by[0].descending is True
        assert q.order_by[1].descending is False

    def test_ask(self):
        q = parse_query("ASK { ?a ?p ?b }")
        assert isinstance(q, AskQuery)

    def test_no_variables_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT WHERE { ?a ?p ?b }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?a WHERE { ?a ?p ?b } garbage")


class TestPatterns:
    def test_triple_with_a(self):
        q = parse_query("SELECT ?s { ?s a <http://e/T> }")
        pattern = q.where.elements[0]
        assert pattern.predicate == RDF.type

    def test_prefixed_names(self):
        q = parse_query("PREFIX e: <http://e/> SELECT ?s { ?s e:p e:o }")
        pattern = q.where.elements[0]
        assert pattern.predicate == URIRef("http://e/p")
        assert pattern.obj == URIRef("http://e/o")

    def test_predicate_object_lists(self):
        q = parse_query("PREFIX e: <http://e/> SELECT ?s { ?s e:p e:a , e:b ; e:q e:c }")
        assert len(q.where.elements) == 3

    def test_default_prefixes_available(self):
        q = parse_query("SELECT ?s { ?s a qb:Observation }")
        assert q.where.elements[0].obj == URIRef("http://purl.org/linked-data/cube#Observation")

    def test_optional(self):
        q = parse_query("SELECT ?s { ?s ?p ?o OPTIONAL { ?s ?q ?r } }")
        assert isinstance(q.where.elements[1], OptionalPattern)

    def test_union(self):
        q = parse_query("SELECT ?s { { ?s ?p ?a } UNION { ?s ?p ?b } UNION { ?s ?p ?c } }")
        union = q.where.elements[0]
        assert isinstance(union, UnionPattern)
        assert len(union.branches) == 3

    def test_nested_group(self):
        q = parse_query("SELECT ?s { { ?s ?p ?o } }")
        assert isinstance(q.where.elements[0], GroupPattern)

    def test_values_single_var(self):
        q = parse_query("PREFIX e: <http://e/> SELECT ?s { VALUES ?s { e:a e:b } ?s ?p ?o }")
        values = q.where.elements[0]
        assert isinstance(values, ValuesPattern)
        assert len(values.rows) == 2

    def test_values_multi_var_with_undef(self):
        q = parse_query(
            "PREFIX e: <http://e/> SELECT ?a ?b { VALUES (?a ?b) { (e:x UNDEF) } }"
        )
        values = q.where.elements[0]
        assert values.rows[0][1] is None

    def test_unterminated_group(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?s { ?s ?p ?o ")


class TestFilters:
    def test_comparison(self):
        q = parse_query("SELECT ?s { ?s ?p ?o FILTER(?o != ?s) }")
        flt = q.where.elements[1]
        assert isinstance(flt, Filter)
        assert isinstance(flt.expression, BinaryExpr)
        assert flt.expression.op == "!="

    def test_not_exists(self):
        q = parse_query("SELECT ?s { ?s ?p ?o FILTER NOT EXISTS { ?s ?q ?r } }")
        exists = q.where.elements[1]
        assert isinstance(exists, Exists) and exists.negated

    def test_exists(self):
        q = parse_query("SELECT ?s { ?s ?p ?o FILTER EXISTS { ?s ?q ?r } }")
        exists = q.where.elements[1]
        assert isinstance(exists, Exists) and not exists.negated

    def test_builtin_without_parens_wrapper(self):
        q = parse_query("SELECT ?s { ?s ?p ?o FILTER BOUND(?o) }")
        assert isinstance(q.where.elements[1], Filter)

    def test_logical_precedence(self):
        q = parse_query("SELECT ?s { ?s ?p ?o FILTER(?a = 1 || ?b = 2 && ?c = 3) }")
        expr = q.where.elements[1].expression
        assert expr.op == "||"
        assert expr.right.op == "&&"

    def test_in_expression(self):
        q = parse_query("PREFIX e: <http://e/> SELECT ?s { ?s ?p ?o FILTER(?o IN (e:a, e:b)) }")
        expr = q.where.elements[1].expression
        assert len(expr.haystack) == 2 and not expr.negated

    def test_not_in_expression(self):
        q = parse_query("PREFIX e: <http://e/> SELECT ?s { ?s ?p ?o FILTER(?o NOT IN (e:a)) }")
        assert q.where.elements[1].expression.negated

    def test_nested_not_exists_in_expression(self):
        q = parse_query(
            "SELECT ?s { ?s ?p ?o FILTER(!BOUND(?o) || NOT EXISTS { ?s ?q ?r }) }"
        )
        assert isinstance(q.where.elements[1], Filter)


class TestPaths:
    def _predicate(self, text):
        q = parse_query(f"PREFIX e: <http://e/> SELECT ?s {{ ?s {text} ?o }}")
        return q.where.elements[0].predicate

    def test_plain_iri_is_term(self):
        assert self._predicate("e:p") == URIRef("http://e/p")

    def test_sequence(self):
        path = self._predicate("e:p/e:q")
        assert isinstance(path, PathSequence)
        assert len(path.steps) == 2

    def test_alternative(self):
        path = self._predicate("e:p|e:q")
        assert isinstance(path, PathAlternative)

    def test_star(self):
        path = self._predicate("e:p*")
        assert isinstance(path, PathMod) and path.modifier == "*"

    def test_plus_and_question(self):
        assert self._predicate("e:p+").modifier == "+"
        assert self._predicate("e:p?").modifier == "?"

    def test_inverse(self):
        path = self._predicate("^e:p")
        assert path.__class__.__name__ == "PathInverse"

    def test_grouped_path(self):
        path = self._predicate("(e:p/e:q)*")
        assert isinstance(path, PathMod)
        assert isinstance(path.path, PathSequence)

    def test_mixed_precedence(self):
        # '/' binds tighter than '|'
        path = self._predicate("e:a/e:b|e:c")
        assert isinstance(path, PathAlternative)
        assert isinstance(path.options[0], PathSequence)

    def test_a_in_path(self):
        path = self._predicate("a/e:p")
        assert isinstance(path, PathSequence)
        assert path.steps[0] == PathLink(RDF.type)
