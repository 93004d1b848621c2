"""Unit tests for expression helpers: EBV, comparisons, builtins."""

import pytest

from repro.rdf import Literal, URIRef
from repro.rdf.terms import BNode, XSD_BOOLEAN, XSD_INTEGER
from repro.paper.sparql.functions import (
    EvalError,
    call_builtin,
    compare_terms,
    ebv,
    numeric_value,
    FALSE,
    TRUE,
)


class TestEBV:
    def test_boolean_literals(self):
        assert ebv(TRUE) is True
        assert ebv(FALSE) is False

    def test_numbers(self):
        assert ebv(Literal(1)) is True
        assert ebv(Literal(0)) is False
        assert ebv(Literal(0.0)) is False

    def test_strings(self):
        assert ebv(Literal("x")) is True
        assert ebv(Literal("")) is False

    def test_uri_has_no_ebv(self):
        with pytest.raises(EvalError):
            ebv(URIRef("http://e/a"))


class TestComparisons:
    def test_numeric_cross_datatype(self):
        assert compare_terms("=", Literal(1), Literal("1.0", datatype="http://www.w3.org/2001/XMLSchema#double"))
        assert compare_terms("<", Literal(1), Literal(2.5))

    def test_uri_equality(self):
        a, b = URIRef("http://e/a"), URIRef("http://e/b")
        assert compare_terms("=", a, a)
        assert compare_terms("!=", a, b)

    def test_uri_ordering_is_error(self):
        with pytest.raises(EvalError):
            compare_terms("<", URIRef("http://e/a"), URIRef("http://e/b"))

    def test_string_ordering(self):
        assert compare_terms("<", Literal("apple"), Literal("banana"))

    def test_uri_never_equals_literal(self):
        assert not compare_terms("=", URIRef("http://e/a"), Literal("http://e/a"))

    def test_incomparable_datatypes_error(self):
        with pytest.raises(EvalError):
            compare_terms("=", Literal("x", datatype=XSD_BOOLEAN), Literal("x", datatype="http://e/custom"))

    def test_numeric_value_rejects_strings(self):
        with pytest.raises(EvalError):
            numeric_value(Literal("five"))


class TestBuiltins:
    def test_str(self):
        assert call_builtin("STR", [URIRef("http://e/a")]) == Literal("http://e/a")
        assert call_builtin("STR", [Literal(5)]) == Literal("5")

    def test_str_of_bnode_errors(self):
        with pytest.raises(EvalError):
            call_builtin("STR", [BNode("x")])

    def test_datatype(self):
        assert str(call_builtin("DATATYPE", [Literal(5)])) == XSD_INTEGER

    def test_lang(self):
        assert call_builtin("LANG", [Literal("x", language="en")]) == Literal("en")
        assert call_builtin("LANG", [Literal("x")]) == Literal("")

    def test_type_checks(self):
        assert call_builtin("ISIRI", [URIRef("http://e/")]) == TRUE
        assert call_builtin("ISBLANK", [BNode()]) == TRUE
        assert call_builtin("ISLITERAL", [Literal("x")]) == TRUE
        assert call_builtin("ISNUMERIC", [Literal(5)]) == TRUE
        assert call_builtin("ISNUMERIC", [Literal("5")]) == FALSE

    def test_sameterm_strict(self):
        assert call_builtin("SAMETERM", [Literal("1"), Literal("1")]) == TRUE
        assert call_builtin("SAMETERM", [Literal(1), Literal("1")]) == FALSE

    def test_regex_flags(self):
        assert call_builtin("REGEX", [Literal("Athens"), Literal("^ath"), Literal("i")]) == TRUE
        assert call_builtin("REGEX", [Literal("Athens"), Literal("^ath")]) == FALSE

    def test_string_predicates(self):
        assert call_builtin("STRSTARTS", [Literal("Athens"), Literal("Ath")]) == TRUE
        assert call_builtin("STRENDS", [Literal("Athens"), Literal("ens")]) == TRUE
        assert call_builtin("CONTAINS", [Literal("Athens"), Literal("the")]) == TRUE

    def test_strlen_abs(self):
        assert call_builtin("STRLEN", [Literal("abcd")]).to_python() == 4
        assert call_builtin("ABS", [Literal(-3)]).to_python() == 3

    def test_unknown_builtin(self):
        with pytest.raises(EvalError):
            call_builtin("NOSUCH", [])


class TestStringFunctions:
    def test_case_functions(self):
        assert call_builtin("UCASE", [Literal("Athens")]) == Literal("ATHENS")
        assert call_builtin("LCASE", [Literal("Athens")]) == Literal("athens")

    def test_concat(self):
        assert call_builtin("CONCAT", [Literal("a"), Literal("-"), Literal("b")]) == Literal("a-b")

    def test_strbefore_strafter(self):
        assert call_builtin("STRBEFORE", [Literal("geo/GR"), Literal("/")]) == Literal("geo")
        assert call_builtin("STRAFTER", [Literal("geo/GR"), Literal("/")]) == Literal("GR")
        assert call_builtin("STRBEFORE", [Literal("abc"), Literal("z")]) == Literal("")
        assert call_builtin("STRAFTER", [Literal("abc"), Literal("z")]) == Literal("")

    def test_substr_one_based(self):
        assert call_builtin("SUBSTR", [Literal("Athens"), Literal(2)]) == Literal("thens")
        assert call_builtin("SUBSTR", [Literal("Athens"), Literal(2), Literal(3)]) == Literal("the")

    def test_replace(self):
        assert call_builtin(
            "REPLACE", [Literal("a-b-c"), Literal("-"), Literal("+")]
        ) == Literal("a+b+c")
        assert call_builtin(
            "REPLACE", [Literal("Athens"), Literal("^ATH"), Literal("X"), Literal("i")]
        ) == Literal("Xens")

    def test_numeric_rounding(self):
        assert call_builtin("ROUND", [Literal(2.5)]).to_python() == 2.0
        assert call_builtin("FLOOR", [Literal(2.9)]).to_python() == 2.0
        assert call_builtin("CEIL", [Literal(2.1)]).to_python() == 3.0
        assert call_builtin("CEIL", [Literal(3)]).to_python() == 3

    def test_in_query(self):
        from repro.rdf import parse_turtle
        from repro.paper.sparql import query
        from repro.paper.sparql.ast import Var

        g = parse_turtle('@prefix ex: <http://example.org/> . ex:a ex:name "Athens" .')
        rows = query(
            g,
            "PREFIX ex: <http://example.org/> "
            "SELECT (UCASE(SUBSTR(?n, 1, 3)) AS ?code) { ?s ex:name ?n }",
        )
        assert rows[0][Var("code")] == Literal("ATH")
