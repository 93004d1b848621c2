"""repro — containment and complementarity in RDF data cubes.

A from-scratch reproduction of *"Efficient Computation of Containment
and Complementarity in RDF Data Cubes"* (Meimaris, Papastefanatos,
Vassiliadis, Anagnostopoulos — EDBT 2016), including every substrate
the paper depends on: an RDF triple store with Turtle/N-Triples
support, the QB cube model and dataset generators.  The paper's
comparators (clustering, hybrid, SPARQL and rule-based) and the SPARQL
and rule engines they run on live in :mod:`repro.paper`, which nothing
here imports until one of those methods is asked for.

Quickstart::

    from repro import compute_relationships, Method
    from repro.data import build_realworld_cubespace

    cube = build_realworld_cubespace(scale=0.01, seed=7)
    result = compute_relationships(cube, method=Method.CUBE_MASKING)
    print(result)          # RelationshipSet(full=..., partial=..., complementary=...)
"""

from repro.core import (
    CubeLattice,
    Fault,
    FaultPlan,
    MaterializationRunner,
    Method,
    ObservationSpace,
    OccurrenceMatrix,
    Recall,
    RelationshipDelta,
    RelationshipSet,
    compute_baseline,
    compute_baseline_streaming,
    compute_cubemask,
    compute_relationships,
    remove_observations,
    run_materialization,
    update_relationships,
)
from repro.errors import (
    CheckpointError,
    ComputationError,
    ReproError,
    ServiceError,
    UnitTimeoutError,
    UnknownObservationError,
    WorkerCrashError,
)
from repro.qb import (
    CubeSpace,
    Dataset,
    DatasetSchema,
    Hierarchy,
    Observation,
    cubespace_to_graph,
    is_well_formed,
    load_cubespace,
    relationships_to_graph,
    validate_graph,
)
from repro.rdf import (
    Graph,
    Literal,
    Namespace,
    RDFDataset,
    URIRef,
    parse_trig,
    parse_turtle,
    serialize_trig,
    serialize_turtle,
)
from repro.service import QueryEngine, RelationshipIndex, start_server
from repro.storage import SegmentStore, load_segments, save_segments
from repro.store import load_relationships, save_relationships

from repro._version import __version__

__all__ = [
    "__version__",
    # facade
    "Method",
    "compute_relationships",
    "update_relationships",
    "remove_observations",
    "compute_baseline",
    "compute_baseline_streaming",
    "compute_cubemask",
    # core types
    "ObservationSpace",
    "OccurrenceMatrix",
    "CubeLattice",
    "RelationshipSet",
    "RelationshipDelta",
    "Recall",
    # cube model
    "CubeSpace",
    "Dataset",
    "DatasetSchema",
    "Observation",
    "Hierarchy",
    "load_cubespace",
    "cubespace_to_graph",
    "relationships_to_graph",
    "validate_graph",
    "is_well_formed",
    # RDF substrate
    "Graph",
    "RDFDataset",
    "URIRef",
    "Literal",
    "Namespace",
    "parse_turtle",
    "serialize_turtle",
    "parse_trig",
    "serialize_trig",
    # persistence
    "save_relationships",
    "load_relationships",
    "SegmentStore",
    "save_segments",
    "load_segments",
    # serving
    "RelationshipIndex",
    "QueryEngine",
    "start_server",
    # resilience
    "MaterializationRunner",
    "run_materialization",
    "FaultPlan",
    "Fault",
    # errors
    "ReproError",
    "ComputationError",
    "WorkerCrashError",
    "UnitTimeoutError",
    "CheckpointError",
    "ServiceError",
    "UnknownObservationError",
]
