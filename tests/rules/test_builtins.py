"""Unit tests for rule builtins."""

import pytest

from repro.errors import RuleEvaluationError
from repro.rdf import Literal, URIRef
from repro.paper.rules.builtins import BUILTINS, register_builtin


class TestBuiltins:
    def test_equal_not_equal(self):
        a, b = URIRef("http://e/a"), URIRef("http://e/b")
        assert BUILTINS["equal"](a, a)
        assert not BUILTINS["equal"](a, b)
        assert BUILTINS["notEqual"](a, b)
        assert not BUILTINS["notEqual"](a, a)

    def test_numeric_comparisons(self):
        assert BUILTINS["lessThan"](Literal(1), Literal(2))
        assert BUILTINS["greaterThan"](Literal(3), Literal(2))
        assert BUILTINS["le"](Literal(2), Literal(2))
        assert BUILTINS["ge"](Literal(2), Literal(2))

    def test_numeric_on_string_literal_with_number(self):
        assert BUILTINS["lessThan"](Literal("1"), Literal("2.5"))

    def test_numeric_on_uri_errors(self):
        with pytest.raises(RuleEvaluationError):
            BUILTINS["lessThan"](URIRef("http://e/a"), Literal(1))

    def test_numeric_on_text_errors(self):
        with pytest.raises(RuleEvaluationError):
            BUILTINS["lessThan"](Literal("abc"), Literal(1))

    def test_is_literal(self):
        assert BUILTINS["isLiteral"](Literal("x"))
        assert not BUILTINS["isLiteral"](URIRef("http://e/a"))

    def test_register_custom(self):
        register_builtin("alwaysTrue", lambda *args: True)
        try:
            assert BUILTINS["alwaysTrue"]()
        finally:
            del BUILTINS["alwaysTrue"]
