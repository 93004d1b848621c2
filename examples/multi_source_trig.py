"""Multi-source cubes with named graphs (TriG + SPARQL GRAPH).

Each statistical office publishes its cube in its own named graph;
shared code lists live in the default graph.  The example loads the
whole TriG dataset, computes cross-source relationships, queries
provenance with SPARQL ``GRAPH`` patterns and ranks source relatedness.

Run with::

    python examples/multi_source_trig.py
"""

from repro import Method, ObservationSpace, compute_relationships
from repro.core.recommend import dataset_relatedness
from repro.qb.loader import load_cubespace_dataset
from repro.rdf import parse_trig
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var

TRIG = """
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix ex: <http://example.org/> .

# ---- shared code lists + provenance notes (default graph) -----------
ex:geoScheme a skos:ConceptScheme ; skos:hasTopConcept ex:World .
ex:World a skos:Concept ; skos:inScheme ex:geoScheme .
ex:Greece a skos:Concept ; skos:inScheme ex:geoScheme ; skos:broader ex:World .
ex:Athens a skos:Concept ; skos:inScheme ex:geoScheme ; skos:broader ex:Greece .

ex:eurostatGraph ex:publishedBy ex:Eurostat .
ex:worldbankGraph ex:publishedBy ex:WorldBank .

# ---- Eurostat's unemployment cube ------------------------------------
GRAPH ex:eurostatGraph {
    ex:unempData a qb:DataSet ; qb:structure ex:unempDsd .
    ex:unempDsd a qb:DataStructureDefinition ;
        qb:component [ qb:dimension ex:geo ; qb:codeList ex:geoScheme ] ,
                     [ qb:measure ex:unemployment ] .
    ex:u1 a qb:Observation ; qb:dataSet ex:unempData ; ex:geo ex:Greece ; ex:unemployment 24.9 .
    ex:u2 a qb:Observation ; qb:dataSet ex:unempData ; ex:geo ex:Athens ; ex:unemployment 26.3 .
}

# ---- World Bank's population cube -------------------------------------
GRAPH ex:worldbankGraph {
    ex:popData a qb:DataSet ; qb:structure ex:popDsd .
    ex:popDsd a qb:DataStructureDefinition ;
        qb:component [ qb:dimension ex:geo ; qb:codeList ex:geoScheme ] ,
                     [ qb:measure ex:population ] .
    ex:p1 a qb:Observation ; qb:dataSet ex:popData ; ex:geo ex:Greece ; ex:population 10858018 .
    ex:p2 a qb:Observation ; qb:dataSet ex:popData ; ex:geo ex:Athens ; ex:population 664046 .
}
"""


def main() -> None:
    dataset = parse_trig(TRIG)
    print(f"Loaded TriG: {dataset}")

    # ------------------------------------------------------------------
    # Provenance query: which publisher provided which observation?
    # ------------------------------------------------------------------
    rows = query(
        dataset,
        """
        PREFIX qb: <http://purl.org/linked-data/cube#>
        PREFIX ex: <http://example.org/>
        SELECT ?publisher ?obs
        WHERE { ?g ex:publishedBy ?publisher . GRAPH ?g { ?obs a qb:Observation } }
        ORDER BY ?obs
        """,
    )
    print("\nProvenance (via SPARQL GRAPH):")
    for row in rows:
        print(f"  {row[Var('obs')].local_name():4} from {row[Var('publisher')].local_name()}")

    # ------------------------------------------------------------------
    # Cross-source relationships on the merged cube space.
    # ------------------------------------------------------------------
    cube = load_cubespace_dataset(dataset)
    print(f"\nMerged cube space: {cube}")
    space = ObservationSpace.from_cubespace(cube)
    result = compute_relationships(space, Method.CUBE_MASKING)
    print(f"Relationships: {result}")
    for a, b in sorted(result.complementary):
        print(f"  {a.local_name()} ~ {b.local_name()}  (different facts, same context)")

    scores = dataset_relatedness(space, result)
    print("\nSource relatedness:")
    for (a, b), score in sorted(scores.items()):
        print(f"  {a.local_name()} ~ {b.local_name()}: {score:.2f}")


if __name__ == "__main__":
    main()
