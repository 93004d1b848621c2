"""The paper's contribution: containment/complementarity computation.

Modules
-------
``space``
    :class:`ObservationSpace` — padded observations on the union
    dimension bus, plus the reference pair predicates.
``matrix`` / ``baseline``
    Occurrence matrix, ``computeOCM`` and the Θ(n²) baseline
    (Algorithms 1–2).
``clustering`` / ``cluster_method``
    The lossy clustering method (Algorithm 3) with k-means, x-means,
    canopy and hierarchical clustering.
``lattice`` / ``cubemask`` / ``parallel``
    The lossless cubeMasking method (Algorithm 4): one planner, one
    executor, and the sequential, pool and incremental callers.
``kernels``
    The vectorised cube-pair kernel over level-indexed ancestor codes
    and the zero-copy shared-memory publication the parallel fan-out
    attaches to.
``sparql_method`` / ``rules_method``
    The two traditional comparators of Section 4.
``skyline``
    Skylines and k-dominant skylines from containment (Section 1).
``api``
    The :func:`compute_relationships` facade and incremental updates.
``runner``
    The fault-tolerant materialisation runner (checkpoint/resume,
    worker-crash recovery).  Its deterministic fault-injection harness
    lives in :mod:`repro.resilience.faults` (re-exported here for
    compatibility).
"""

from repro.core.api import Method, compute_relationships, remove_observations, update_relationships
from repro.core.baseline import compute_baseline, derive_relationships
from repro.core.cluster_method import compute_clustering, default_cluster_count
from repro.core.cubemask import compute_cubemask
from repro.core.export import space_to_graph
from repro.resilience.faults import Fault, FaultPlan, InjectedFault, truncate_file
from repro.core.hybrid import compute_hybrid
from repro.core.kernels import (
    KernelPlan,
    build_kernel_plan,
    evaluate_pair_block,
    kernel_counters,
    measure_overlap_groups,
)
from repro.core.lattice import CubeLattice
from repro.core.matrix import OccurrenceMatrix
from repro.core.olap import CubeNavigator, rollup_dataset
from repro.core.parallel import compute_cubemask_parallel
from repro.core.recommend import Recommendation, dataset_relatedness, recommend_observations
from repro.core.results import Recall, RelationshipDelta, RelationshipSet
from repro.core.rules_method import compute_rules
from repro.core.runner import Checkpoint, MaterializationRunner, run_materialization, space_fingerprint
from repro.core.skyline import k_dominant_skyline, skyline, skyline_from_relationships
from repro.core.space import ObservationSpace
from repro.core.sparql_method import compute_sparql
from repro.core.streaming import compute_baseline_streaming

__all__ = [
    "Method",
    "compute_relationships",
    "update_relationships",
    "remove_observations",
    "compute_baseline",
    "compute_baseline_streaming",
    "derive_relationships",
    "compute_clustering",
    "default_cluster_count",
    "compute_cubemask",
    "compute_cubemask_parallel",
    "compute_hybrid",
    "compute_sparql",
    "compute_rules",
    "CubeNavigator",
    "rollup_dataset",
    "dataset_relatedness",
    "recommend_observations",
    "Recommendation",
    "ObservationSpace",
    "OccurrenceMatrix",
    "CubeLattice",
    "KernelPlan",
    "build_kernel_plan",
    "evaluate_pair_block",
    "measure_overlap_groups",
    "kernel_counters",
    "RelationshipSet",
    "RelationshipDelta",
    "Recall",
    "skyline",
    "k_dominant_skyline",
    "skyline_from_relationships",
    "space_to_graph",
    "MaterializationRunner",
    "run_materialization",
    "Checkpoint",
    "space_fingerprint",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "truncate_file",
]
