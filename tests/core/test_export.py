"""Unit tests for the observation-space RDF export."""

import pytest

from repro.paper.export import space_to_graph
from repro.core.space import ObservationSpace
from repro.qb.hierarchy import Hierarchy
from repro.rdf import EX, QB, RDF, SKOS


@pytest.fixture
def space() -> ObservationSpace:
    geo = Hierarchy(EX.World)
    geo.add(EX.Greece, EX.World)
    geo.add(EX.Athens, EX.Greece)
    geo.add(EX.Italy, EX.World)       # never used by an observation
    geo.add(EX.Rome, EX.Italy)        # never used
    space = ObservationSpace((EX.refArea,), {EX.refArea: geo})
    space.add(EX.o1, EX.d, {EX.refArea: EX.Athens}, {EX.pop})
    return space


class TestExport:
    def test_used_codes_only_prunes(self, space):
        graph = space_to_graph(space, used_codes_only=True)
        concepts = set(graph.subjects(RDF.type, SKOS.Concept))
        assert concepts == {EX.World, EX.Greece, EX.Athens}

    def test_full_codelists_on_request(self, space):
        graph = space_to_graph(space, used_codes_only=False)
        concepts = set(graph.subjects(RDF.type, SKOS.Concept))
        assert EX.Rome in concepts and EX.Italy in concepts

    def test_ancestor_chain_always_included(self, space):
        """Pruning must keep ancestors, or broader* paths would break."""
        graph = space_to_graph(space)
        assert (EX.Athens, SKOS.broader, EX.Greece) in graph
        assert (EX.Greece, SKOS.broader, EX.World) in graph

    def test_schema_typing(self, space):
        graph = space_to_graph(space)
        assert (EX.refArea, RDF.type, QB.DimensionProperty) in graph
        assert (EX.pop, RDF.type, QB.MeasureProperty) in graph

    def test_padded_dimension_emitted(self):
        geo = Hierarchy(EX.World)
        space = ObservationSpace((EX.refArea,), {EX.refArea: geo})
        space.add(EX.o1, EX.d, {}, {EX.pop})  # unbound -> padded to root
        graph = space_to_graph(space)
        assert (EX.o1, EX.refArea, EX.World) in graph

    def test_observation_typing_and_measures(self, space):
        graph = space_to_graph(space)
        assert (EX.o1, RDF.type, QB.Observation) in graph
        assert graph.value(EX.o1, EX.pop, None) is not None
