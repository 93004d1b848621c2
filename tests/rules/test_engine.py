"""Unit tests for the forward-chaining engine."""

import pytest

from repro.errors import RuleEvaluationError
from repro.rdf import EX, Graph, Literal, parse_turtle
from repro.rdf.namespaces import SKOS
from repro.paper.rules import RuleEngine, parse_rules


@pytest.fixture
def broader_chain() -> Graph:
    return parse_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix skos: <http://www.w3.org/2004/02/skos/core#> .
        ex:Athens skos:broader ex:Greece .
        ex:Greece skos:broader ex:Europe .
        ex:Europe skos:broader ex:World .
        """
    )


class TestForwardChaining:
    def test_transitive_closure(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[t: (?a skos:broader ?b), (?b skos:broader ?c) -> (?a skos:broader ?c)]")
        )
        closed = engine.run(broader_chain)
        assert (EX.Athens, SKOS.broader, EX.World) in closed
        assert len(closed) == 6  # 3 base + 3 derived

    def test_input_untouched_by_default(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[t: (?a skos:broader ?b), (?b skos:broader ?c) -> (?a skos:broader ?c)]")
        )
        engine.run(broader_chain)
        assert len(broader_chain) == 3

    def test_in_place(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[t: (?a skos:broader ?b), (?b skos:broader ?c) -> (?a skos:broader ?c)]")
        )
        engine.run(broader_chain, in_place=True)
        assert len(broader_chain) == 6

    def test_inferred_only(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[t: (?a skos:broader ?b), (?b skos:broader ?c) -> (?a skos:broader ?c)]")
        )
        derived = engine.inferred(broader_chain)
        assert len(derived) == 3
        assert (EX.Athens, SKOS.broader, EX.Greece) not in derived

    def test_builtin_guard(self, broader_chain):
        engine = RuleEngine(
            parse_rules(
                "[g: (?a skos:broader ?b), notEqual(?a, ex:Greece) -> (?a ex:flagged ?b)]"
            )
        )
        derived = engine.inferred(broader_chain)
        flagged = {s for s, _, _ in derived}
        assert flagged == {EX.Athens, EX.Europe}

    def test_multiple_head_atoms(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[h: (?a skos:broader ?b) -> (?a ex:child ?b), (?b ex:parentOf ?a)]")
        )
        derived = engine.inferred(broader_chain)
        assert len(derived) == 6

    def test_chained_rules(self, broader_chain):
        engine = RuleEngine(
            parse_rules(
                "[r1: (?a skos:broader ?b) -> (?a ex:anc ?b)]\n"
                "[r2: (?a ex:anc ?b), (?b ex:anc ?c) -> (?a ex:anc ?c)]"
            )
        )
        derived = engine.inferred(broader_chain)
        assert (EX.Athens, EX.anc, EX.World) in derived

    def test_no_rules_is_identity(self, broader_chain):
        assert RuleEngine([]).run(broader_chain) == broader_chain

    def test_empty_graph(self):
        engine = RuleEngine(parse_rules("[t: (?a ex:p ?b) -> (?b ex:p ?a)]"))
        assert len(engine.run(Graph())) == 0

    def test_fixpoint_iteration_count(self, broader_chain):
        engine = RuleEngine(
            parse_rules("[t: (?a skos:broader ?b), (?b skos:broader ?c) -> (?a skos:broader ?c)]")
        )
        engine.run(broader_chain)
        assert engine.last_iterations >= 2

    def test_literals_in_derived_triples(self):
        g = parse_turtle("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        engine = RuleEngine(parse_rules('[r: (?a ex:p ?b) -> (?a ex:status "linked")]'))
        derived = engine.inferred(g)
        assert (EX.a, EX.status, Literal("linked")) in derived


class TestEngineErrors:
    def test_unknown_builtin_rejected_at_construction(self):
        rules = parse_rules("[r: (?a ex:p ?b), noSuchBuiltin(?a) -> (?a ex:q ?b)]")
        with pytest.raises(RuleEvaluationError):
            RuleEngine(rules)

    def test_unbound_builtin_variable(self):
        # ?c never appears in a triple atom; Rule itself is safe (head
        # uses only bound vars) but the guard cannot be evaluated.
        rules = parse_rules("[r: (?a ex:p ?b), notEqual(?a, ?c) -> (?a ex:q ?b)]")
        g = parse_turtle("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        with pytest.raises(RuleEvaluationError):
            RuleEngine(rules).run(g)

    def test_literal_subject_in_head_rejected(self):
        rules = parse_rules("[r: (?a ex:p ?b) -> (?b ex:q ?a)]")
        g = parse_turtle('@prefix ex: <http://example.org/> . ex:a ex:p "lit" .')
        with pytest.raises(RuleEvaluationError):
            RuleEngine(rules).run(g)

    def test_max_iterations_guard(self):
        # Mint fresh URIs forever?  Not expressible here (no skolem
        # builtin), so simulate with a tiny limit on a 2-step closure.
        g = parse_turtle(
            """
            @prefix ex: <http://example.org/> .
            ex:n1 ex:next ex:n2 . ex:n2 ex:next ex:n3 . ex:n3 ex:next ex:n4 .
            ex:n4 ex:next ex:n5 . ex:n5 ex:next ex:n6 .
            """
        )
        rules = parse_rules("[t: (?a ex:next ?b), (?b ex:next ?c) -> (?a ex:next ?c)]")
        engine = RuleEngine(rules, max_iterations=1)
        with pytest.raises(RuleEvaluationError):
            engine.run(g)
