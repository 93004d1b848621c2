"""End-to-end integration tests across the whole stack.

Each test exercises a realistic pipeline: RDF text in, relationships
out, RDF links back, reloaded and verified — crossing the parser, the
QB model, the algorithms and the writer in one pass.
"""

import pytest

from repro import (
    Method,
    ObservationSpace,
    compute_relationships,
    cubespace_to_graph,
    load_cubespace,
    parse_turtle,
    relationships_to_graph,
    serialize_turtle,
)
from repro.paper.sparql_method import compute_sparql
from repro.data.example import build_example_cubespace
from repro.data.realworld import build_realworld_cubespace
from repro.rdf import CCREL
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


class TestFullPipeline:
    def test_turtle_roundtrip_preserves_relationships(self):
        cube = build_example_cubespace()
        direct = compute_relationships(cube, Method.BASELINE)
        # Serialize to Turtle text, parse back, recompute.
        text = serialize_turtle(cubespace_to_graph(cube))
        reloaded = load_cubespace(parse_turtle(text))
        via_text = compute_relationships(reloaded, Method.BASELINE)
        assert direct == via_text

    def test_materialised_links_queryable_with_sparql(self):
        cube = build_example_cubespace()
        result = compute_relationships(cube, Method.CUBE_MASKING)
        links = relationships_to_graph(result)
        rows = query(
            links,
            "PREFIX ccrel: <http://www.diachron-fp7.eu/qb/relationship#> "
            "SELECT ?a ?b { ?a ccrel:fullyContains ?b }",
        )
        pairs = {(row[Var("a")], row[Var("b")]) for row in rows}
        assert pairs == result.full

    def test_links_roundtrip_through_turtle(self):
        cube = build_example_cubespace()
        result = compute_relationships(cube, Method.BASELINE, collect_partial_dimensions=True)
        text = serialize_turtle(relationships_to_graph(result))
        reparsed = parse_turtle(text)
        assert len(list(reparsed.triples(None, CCREL.fullyContains, None))) == len(result.full)
        # complements written symmetrically
        assert (
            len(list(reparsed.triples(None, CCREL.complements, None)))
            == 2 * len(result.complementary)
        )

    def test_generated_corpus_through_rdf_and_back(self):
        cube = build_realworld_cubespace(scale=0.001, seed=13)
        text = serialize_turtle(cubespace_to_graph(cube))
        reloaded = load_cubespace(parse_turtle(text))
        assert reloaded.observation_count() == cube.observation_count()
        direct = compute_relationships(cube, Method.CUBE_MASKING, collect_partial=False)
        via_rdf = compute_relationships(reloaded, Method.CUBE_MASKING, collect_partial=False)
        assert direct == via_rdf

    def test_sparql_method_on_loaded_corpus(self):
        """The SPARQL comparator agrees with the native methods on data
        that went through a full RDF round-trip."""
        cube = build_realworld_cubespace(scale=0.0003, seed=17)
        space = ObservationSpace.from_cubespace(cube)
        native = compute_relationships(space, Method.CUBE_MASKING)
        via_sparql = compute_sparql(space)
        assert native == via_sparql


class TestCrossMethodAtScale:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_lossless_methods_agree_on_generated_corpus(self, seed):
        cube = build_realworld_cubespace(scale=0.001, seed=seed)
        space = ObservationSpace.from_cubespace(cube)
        results = [
            compute_relationships(space, method, collect_partial_dimensions=False)
            for method in (Method.BASELINE, Method.CUBE_MASKING, Method.STREAMING)
        ]
        assert results[0] == results[1] == results[2]

    def test_clustering_recall_reported_against_truth(self):
        cube = build_realworld_cubespace(scale=0.002, seed=7)
        space = ObservationSpace.from_cubespace(cube)
        truth = compute_relationships(space, Method.BASELINE, collect_partial_dimensions=False)
        found = compute_relationships(space, Method.CLUSTERING, seed=1)
        recall = found.recall_against(truth)
        assert 0.0 <= recall.overall <= 1.0
        assert recall.full <= 1.0
