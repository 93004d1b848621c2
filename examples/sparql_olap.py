"""OLAP over SPARQL: aggregate a cube with GROUP BY and cross-check.

The related work the paper builds on (Kämpgen & Harth) runs OLAP
operations through SPARQL aggregate queries over QB triples.  This
example does a roll-up twice — once with a SPARQL ``GROUP BY`` over the
RDF export, once with the containment-based
:class:`~repro.core.olap.CubeNavigator` — and shows both agree.  It
also uses ``CONSTRUCT`` to materialise the derived aggregate as new
observations.

Run with::

    python examples/sparql_olap.py
"""

from repro import Method, compute_relationships, cubespace_to_graph, serialize_turtle
from repro.core.olap import CubeNavigator
from repro.data.example import EXNS, build_example_cubespace
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var


def main() -> None:
    cube = build_example_cubespace()
    graph = cubespace_to_graph(cube)

    # ------------------------------------------------------------------
    # Roll-up via SPARQL: average unemployment per refArea parent.
    # ------------------------------------------------------------------
    # The roll-up below (Greece, 2011): strictly-contained observations
    # on refArea, periods within 2011 — the same pairs the containment
    # relationship identifies.
    rows = query(
        graph,
        f"""
        PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
        SELECT ?country (AVG(?rate) AS ?avgRate) (COUNT(?obs) AS ?cities)
        WHERE {{
          ?obs <{EXNS.unemployment}> ?rate ;
               <{EXNS.refArea}> ?city ;
               <{EXNS.refPeriod}> ?period .
          ?city skos:broader ?country .
          ?period skos:broader* <{EXNS.Y2011}> .
        }}
        GROUP BY ?country
        """,
    )
    print("Average 2011 unemployment per parent area (SPARQL GROUP BY):")
    sparql_avgs = {}
    for row in sorted(rows, key=lambda r: str(r[Var("country")])):
        country = row[Var("country")]
        avg = row[Var("avgRate")].to_python()
        count = row[Var("cities")].to_python()
        sparql_avgs[country] = avg
        print(f"  {country.local_name():8} avg={avg:6.2f}  over {count} observation(s)")

    # ------------------------------------------------------------------
    # The same roll-up via containment links.
    # ------------------------------------------------------------------
    relationships = compute_relationships(cube, Method.BASELINE)
    navigator = CubeNavigator.from_cubespace(cube, relationships)
    greece_avg = navigator.aggregate(EXNS.o21, EXNS.unemployment, "avg")
    print(f"\nContainment-based roll-up below o21 (Greece 2011): avg={greece_avg:.2f}")
    assert greece_avg == sparql_avgs[EXNS.Greece], "the two roll-up paths must agree"
    print("SPARQL GROUP BY and containment aggregation agree ✓")

    # ------------------------------------------------------------------
    # Materialise the aggregates as new RDF with CONSTRUCT.
    # ------------------------------------------------------------------
    derived = query(
        graph,
        f"""
        PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
        CONSTRUCT {{ ?country <{EXNS.hasCityMeasurement}> ?obs }}
        WHERE {{
          ?obs <{EXNS.unemployment}> ?rate ; <{EXNS.refArea}> ?city .
          ?city skos:broader ?country .
        }}
        """,
    )
    print("\nMaterialised derived triples:")
    print(serialize_turtle(derived))


if __name__ == "__main__":
    main()
