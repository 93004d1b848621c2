"""The clustering method (Section 3.2, Algorithm 3).

Pre-process: fit a clustering algorithm on a random sample of the
occurrence-matrix rows (10 % by default, as in the paper), assign every
observation to the nearest cluster, then run the baseline inside each
cluster and union the per-cluster relationship sets.

The method trades recall for speed: relationships between observations
that land in different clusters are lost (~Θ(n²/k) comparisons; with
the paper's rule of thumb ``k = sqrt(n/2)`` this is Θ(n^1.5)).
"""

from __future__ import annotations

import math
from typing import Literal as TypingLiteral

import numpy as np

from repro.errors import AlgorithmError
from repro.core.baseline import compute_baseline
from repro.paper.clustering import (
    CanopyClustering,
    HierarchicalClustering,
    KMeans,
    XMeans,
)
from repro.core.matrix import OccurrenceMatrix
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace

__all__ = ["compute_clustering", "cluster_labels", "feature_matrix", "default_cluster_count"]

AlgorithmName = TypingLiteral["kmeans", "xmeans", "canopy", "hierarchical"]


def feature_matrix(space: ObservationSpace) -> np.ndarray:
    """Binary occurrence-matrix rows as a float matrix for clustering."""
    matrix = OccurrenceMatrix(space, backend="numpy")
    dense, _ = matrix.dense()
    return dense.astype(np.float64)


def default_cluster_count(n: int) -> int:
    """The paper's rule of thumb ``k = sqrt(n/2)``."""
    return max(1, int(round(math.sqrt(n / 2))))


def _make_model(
    algorithm: AlgorithmName,
    n_clusters: int,
    seed: int,
    canopy_t1: float,
    canopy_t2: float,
):
    if algorithm == "kmeans":
        return KMeans(n_clusters, seed=seed)
    if algorithm == "xmeans":
        return XMeans(min_k=2, max_k=max(2, n_clusters), seed=seed)
    if algorithm == "canopy":
        return CanopyClustering(t1=canopy_t1, t2=canopy_t2, seed=seed)
    if algorithm == "hierarchical":
        return HierarchicalClustering(n_clusters, seed=seed)
    raise AlgorithmError(f"unknown clustering algorithm {algorithm!r}")


def cluster_labels(
    space: ObservationSpace,
    algorithm: AlgorithmName = "xmeans",
    sample_rate: float = 0.1,
    n_clusters: int | None = None,
    seed: int = 0,
    canopy_t1: float = 0.7,
    canopy_t2: float = 0.4,
    min_sample: int = 32,
) -> np.ndarray:
    """The pre-processing half of Algorithm 3: fit on a sample, assign all.

    Deterministic for a fixed ``seed``, which is what lets the
    resilience layer treat each cluster as an independently resumable
    work unit — a resumed run refits the same assignment.
    """
    n = len(space)
    if not 0.0 < sample_rate <= 1.0:
        raise AlgorithmError("sample_rate must be in (0, 1]")
    features = feature_matrix(space)
    rng = np.random.default_rng(seed)
    sample_size = min(n, max(min_sample, int(math.ceil(n * sample_rate))))
    sample_indices = rng.choice(n, size=sample_size, replace=False)
    sample = features[sample_indices]
    k = n_clusters if n_clusters is not None else default_cluster_count(n)
    model = _make_model(algorithm, k, seed, canopy_t1, canopy_t2)
    return model.fit_assign(sample, features)


def compute_clustering(
    space: ObservationSpace,
    algorithm: AlgorithmName = "xmeans",
    sample_rate: float = 0.1,
    n_clusters: int | None = None,
    seed: int = 0,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = False,
    canopy_t1: float = 0.7,
    canopy_t2: float = 0.4,
    min_sample: int = 32,
    targets=None,
) -> RelationshipSet:
    """Run Algorithm 3: cluster, then baseline inside each cluster.

    Parameters
    ----------
    algorithm:
        ``"xmeans"`` (paper's best), ``"kmeans"``, ``"canopy"`` or
        ``"hierarchical"``.
    sample_rate:
        Fraction of observations used to fit the clustering (paper: 0.1).
    n_clusters:
        Cluster count for k-means/hierarchical and the x-means upper
        bound; defaults to the ``sqrt(n/2)`` rule of thumb.
    """
    result = RelationshipSet()
    n = len(space)
    if n == 0:
        return result
    labels = cluster_labels(
        space,
        algorithm=algorithm,
        sample_rate=sample_rate,
        n_clusters=n_clusters,
        seed=seed,
        canopy_t1=canopy_t1,
        canopy_t2=canopy_t2,
        min_sample=min_sample,
    )

    for cluster in np.unique(labels):
        member_indices = np.flatnonzero(labels == cluster)
        if len(member_indices) < 2:
            continue
        sub_space = space.select(int(i) for i in member_indices)
        partial = compute_baseline(
            sub_space,
            collect_partial=collect_partial,
            collect_partial_dimensions=collect_partial_dimensions,
            targets=targets,
        )
        result.merge(partial)
    return result
