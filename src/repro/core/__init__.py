"""The paper's contribution: containment/complementarity computation.

Modules
-------
``space``
    :class:`ObservationSpace` — padded observations on the union
    dimension bus, plus the reference pair predicates.
``matrix`` / ``baseline``
    Occurrence matrix, ``computeOCM`` and the Θ(n²) baseline
    (Algorithms 1–2).
``streaming``
    The memory-bounded blocked baseline; its ``compute_block`` is also
    the checkpointing runner's unit for the baseline methods.
``lattice`` / ``cubemask`` / ``parallel``
    The lossless cubeMasking method (Algorithm 4): one planner, one
    executor, and the sequential, pool and incremental callers.
``kernels``
    The vectorised cube-pair kernel over level-indexed ancestor codes
    and the zero-copy shared-memory publication the parallel fan-out
    attaches to.
``api``
    The :func:`compute_relationships` facade and incremental updates.
``runner``
    The fault-tolerant materialisation runner (checkpoint/resume,
    worker-crash recovery).  Its deterministic fault-injection harness
    lives in :mod:`repro.resilience.faults` (re-exported here for
    compatibility).

The clustering, hybrid, SPARQL and rule-based methods live in
:mod:`repro.paper`; :func:`compute_relationships` imports them only
when asked for one.  The application extras (``olap``, ``recommend``,
``skyline``) are imported from their own modules.
"""

from repro.core.api import Method, compute_relationships, remove_observations, update_relationships
from repro.core.baseline import compute_baseline, derive_relationships
from repro.core.cubemask import compute_cubemask
from repro.resilience.faults import Fault, FaultPlan, InjectedFault, truncate_file
from repro.core.kernels import (
    KernelPlan,
    build_kernel_plan,
    evaluate_pair_block,
    kernel_counters,
    measure_overlap_groups,
)
from repro.core.lattice import CubeLattice
from repro.core.matrix import OccurrenceMatrix
from repro.core.parallel import compute_cubemask_parallel
from repro.core.results import Recall, RelationshipDelta, RelationshipSet
from repro.core.runner import Checkpoint, MaterializationRunner, run_materialization, space_fingerprint
from repro.core.space import ObservationSpace
from repro.core.streaming import compute_baseline_streaming

__all__ = [
    "Method",
    "compute_relationships",
    "update_relationships",
    "remove_observations",
    "compute_baseline",
    "compute_baseline_streaming",
    "derive_relationships",
    "compute_cubemask",
    "compute_cubemask_parallel",
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
    "MaterializationRunner",
    "run_materialization",
    "Checkpoint",
    "space_fingerprint",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "truncate_file",
]
