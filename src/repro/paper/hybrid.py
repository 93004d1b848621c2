"""Hybrid method (the paper's future-work sketch, Section 6).

"Hybrid probabilistic methods that take into advantage the positive
points of the clustering and cubeMasking algorithms": cubeMasking is
lossless and fast for full containment and complementarity (the lattice
prunes hard), while clustering is much faster on the *partial*
containment workload where the lattice's ∃-dimension prune is weak.

``compute_hybrid`` therefore routes:

* full containment + complementarity through cubeMasking (exact), and
* partial containment through the clustering method (approximate).

The result is exact on ``full``/``complementary`` and has clustering
recall on ``partial`` — the best operating point of Figure 5 when all
three relationship types are needed.
"""

from __future__ import annotations

from repro.paper.cluster_method import AlgorithmName, compute_clustering
from repro.core.cubemask import compute_cubemask
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace

__all__ = ["compute_hybrid"]


def compute_hybrid(
    space: ObservationSpace,
    algorithm: AlgorithmName = "xmeans",
    sample_rate: float = 0.1,
    n_clusters: int | None = None,
    seed: int = 0,
    prefetch_children: bool = True,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = False,
    targets=None,
) -> RelationshipSet:
    """Exact full/complementary via cubeMasking; clustered partial."""
    from repro.core.baseline import normalize_targets

    resolved = normalize_targets(targets, collect_partial)
    result = RelationshipSet()
    exact_targets = tuple(resolved & {"full", "complementary"})
    if exact_targets:
        result.merge(
            compute_cubemask(
                space,
                prefetch_children=prefetch_children,
                targets=exact_targets,
            )
        )
    if "partial" in resolved:
        result.merge(
            compute_clustering(
                space,
                algorithm=algorithm,
                sample_rate=sample_rate,
                n_clusters=n_clusters,
                seed=seed,
                collect_partial_dimensions=collect_partial_dimensions,
                targets=("partial",),
            )
        )
    return result
