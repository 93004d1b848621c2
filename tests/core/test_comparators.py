"""Unit tests for the SPARQL- and rule-based comparators."""

import pytest

from repro.errors import AlgorithmError
from repro.core.baseline import compute_baseline
from repro.paper.export import space_to_graph
from repro.paper.rules_method import build_rule_program, compute_rules
from repro.paper.sparql_method import FAITHFUL_QUERIES, PAPER_QUERIES, compute_sparql
from repro.data.example import build_example_space
from repro.rdf.namespaces import QB, RDF, SKOS
from repro.paper.rules import parse_rules
from repro.paper.sparql import parse_query

from tests.conftest import make_random_space


class TestExport:
    def test_export_shapes(self):
        space = build_example_space()
        graph = space_to_graph(space)
        observations = list(graph.subjects(RDF.type, QB.Observation))
        assert len(observations) == len(space)
        dimensions = list(graph.subjects(RDF.type, QB.DimensionProperty))
        assert len(dimensions) == len(space.dimensions)
        assert len(list(graph.triples(None, SKOS.broader, None))) > 0

    def test_export_pads_dimensions(self):
        space = build_example_space()
        graph = space_to_graph(space)
        # Every observation has a triple for every bus dimension.
        for record in space.observations:
            for dimension in space.dimensions:
                assert graph.value(record.uri, dimension, None) is not None


class TestSparqlComparator:
    def test_faithful_equals_baseline_example(self):
        space = build_example_space()
        assert compute_sparql(space) == compute_baseline(space)

    def test_faithful_equals_baseline_random(self):
        space = make_random_space(25, seed=8, dimension_count=2, fanout=2)
        assert compute_sparql(space) == compute_baseline(space)

    def test_reuses_supplied_graph(self):
        space = build_example_space()
        graph = space_to_graph(space)
        assert compute_sparql(space, graph=graph) == compute_baseline(space)

    def test_collect_partial_false(self):
        space = build_example_space()
        result = compute_sparql(space, collect_partial=False)
        assert result.partial == set()
        assert result.full == compute_baseline(space).full

    def test_paper_mode_runs_and_detects_more(self):
        """The paper's queries are relaxed (no measure condition), so
        they can only over-approximate the faithful sets."""
        space = build_example_space()
        faithful = compute_sparql(space, mode="faithful")
        paper = compute_sparql(space, mode="paper")
        assert faithful.complementary <= paper.complementary
        assert len(paper.partial) >= 0  # detection-only semantics differ

    def test_unknown_mode(self):
        space = build_example_space()
        with pytest.raises(AlgorithmError):
            compute_sparql(space, mode="turbo")

    def test_all_query_texts_parse(self):
        for queries in (FAITHFUL_QUERIES, PAPER_QUERIES):
            for text in queries.values():
                parse_query(text)


class TestRulesComparator:
    def test_faithful_equals_baseline_example(self):
        space = build_example_space()
        assert compute_rules(space) == compute_baseline(space)

    def test_faithful_equals_baseline_random(self):
        space = make_random_space(15, seed=9, dimension_count=2, fanout=2)
        assert compute_rules(space) == compute_baseline(space)

    def test_paper_mode_runs(self):
        space = make_random_space(10, seed=10, dimension_count=2, fanout=2)
        result = compute_rules(space, mode="paper")
        # The paper's partial rule (shared value) is weaker than real
        # partial containment; just check it produces a result set.
        assert result.total() >= 0

    def test_collect_partial_false(self):
        space = make_random_space(12, seed=11, dimension_count=2, fanout=2)
        result = compute_rules(space, collect_partial=False)
        assert result.partial == set()

    def test_unknown_mode(self):
        space = build_example_space()
        with pytest.raises(AlgorithmError):
            compute_rules(space, mode="warp")

    def test_generated_program_parses(self):
        space = build_example_space()
        program = build_rule_program(space.dimensions)
        rules = parse_rules(program)
        names = {r.name for r in rules}
        assert "fullContainment" in names
        assert "complementarity" in names
        assert any(n.startswith("anyContainment") for n in names)

    def test_paper_program_parses(self):
        space = build_example_space()
        rules = parse_rules(build_rule_program(space.dimensions, mode="paper"))
        assert {r.name for r in rules} >= {"paperFull", "paperPartial", "paperComplement"}
