"""Unit tests for the rule-language parser."""

import pytest

from repro.errors import RuleSyntaxError
from repro.rdf import RDF, URIRef
from repro.rdf.terms import Literal
from repro.paper.rules import parse_rules
from repro.paper.rules.ast import Atom, BuiltinCall, RuleVar


class TestRuleParsing:
    def test_named_rule(self):
        rules = parse_rules("[r1: (?a ex:p ?b) -> (?a ex:q ?b)]")
        assert rules[0].name == "r1"
        assert len(rules[0].body) == 1
        assert len(rules[0].head) == 1

    def test_anonymous_rule_gets_name(self):
        rules = parse_rules("[(?a ex:p ?b) -> (?a ex:q ?b)]")
        assert rules[0].name.startswith("rule")

    def test_multiple_rules(self):
        rules = parse_rules(
            "[a1: (?x ex:p ?y) -> (?x ex:q ?y)]\n[a2: (?x ex:q ?y) -> (?x ex:r ?y)]"
        )
        assert [r.name for r in rules] == ["a1", "a2"]

    def test_commas_optional(self):
        with_commas = parse_rules("[r: (?a ex:p ?b), (?b ex:p ?c) -> (?a ex:p ?c)]")
        without = parse_rules("[r: (?a ex:p ?b) (?b ex:p ?c) -> (?a ex:p ?c)]")
        assert with_commas[0].body == without[0].body

    def test_builtin_call(self):
        rules = parse_rules("[r: (?a ex:p ?b), notEqual(?a, ?b) -> (?a ex:q ?b)]")
        guard = rules[0].body[1]
        assert isinstance(guard, BuiltinCall)
        assert guard.name == "notEqual"
        assert guard.args == (RuleVar("a"), RuleVar("b"))

    def test_a_keyword(self):
        rules = parse_rules("[r: (?x a ex:Thing) -> (?x ex:checked ex:Thing)]")
        assert rules[0].body[0].predicate == RDF.type

    def test_full_iri(self):
        rules = parse_rules("[r: (?x <http://e/p> ?y) -> (?x <http://e/q> ?y)]")
        assert rules[0].body[0].predicate == URIRef("http://e/p")

    def test_custom_prefix(self):
        rules = parse_rules("@prefix my: <http://my/> .\n[r: (?x my:p ?y) -> (?x my:q ?y)]")
        assert rules[0].head[0].predicate == URIRef("http://my/q")

    def test_literals_in_rules(self):
        rules = parse_rules('[r: (?x ex:status "ok") -> (?x ex:level 2)]')
        assert rules[0].body[0].obj == Literal("ok")
        assert rules[0].head[0].obj.to_python() == 2

    def test_multiple_head_atoms(self):
        rules = parse_rules("[r: (?x ex:p ?y) -> (?x ex:q ?y), (?y ex:r ?x)]")
        assert len(rules[0].head) == 2

    def test_comments(self):
        rules = parse_rules("# comment\n[r: (?x ex:p ?y) -> (?x ex:q ?y)] // trailing\n")
        assert len(rules) == 1


class TestRuleErrors:
    def test_unsafe_head_variable(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("[r: (?x ex:p ?y) -> (?x ex:q ?z)]")

    def test_builtin_in_head_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("[r: (?x ex:p ?y) -> notEqual(?x, ?y)]")

    def test_garbage_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("this is not a rule")

    def test_undefined_prefix(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("[r: (?x nosuch:p ?y) -> (?x nosuch:q ?y)]")

    def test_error_reports_line(self):
        with pytest.raises(RuleSyntaxError) as info:
            parse_rules("\n\n[r: (?x ex:p %%) -> (?x ex:q ?y)]")
        assert "line 3" in str(info.value)
