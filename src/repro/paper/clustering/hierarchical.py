"""Bottom-up agglomerative clustering with average linkage.

Jaccard distance on binary feature vectors, merged until ``n_clusters``
remain.  O(m² log m) on the sample of size m via a lazy heap of merge
candidates (Lance-Williams update for average linkage).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import AlgorithmError
from repro.paper.clustering.kmeans import assign_to_centroids

__all__ = ["HierarchicalClustering"]


def _jaccard_matrix(points: np.ndarray) -> np.ndarray:
    boolean = points.astype(bool)
    intersection = boolean.astype(np.float64) @ boolean.T.astype(np.float64)
    row_sums = boolean.sum(axis=1).astype(np.float64)
    union = row_sums[:, None] + row_sums[None, :] - intersection
    with np.errstate(invalid="ignore", divide="ignore"):
        similarity = np.where(union > 0, intersection / np.maximum(union, 1e-12), 1.0)
    return 1.0 - similarity


class HierarchicalClustering:
    """Average-linkage agglomerative clustering (UPGMA)."""

    def __init__(self, n_clusters: int, seed: int = 0):
        if n_clusters < 1:
            raise AlgorithmError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.seed = seed  # unused; kept for interface uniformity
        self.centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "HierarchicalClustering":
        points = np.asarray(points, dtype=np.float64)
        m = len(points)
        if m == 0:
            raise AlgorithmError("fit expects a non-empty matrix")
        target = min(self.n_clusters, m)
        distance = _jaccard_matrix(points)
        sizes = {i: 1 for i in range(m)}
        alive = set(range(m))
        heap: list[tuple[float, int, int]] = []
        for i in range(m):
            for j in range(i + 1, m):
                heap.append((distance[i, j], i, j))
        heapq.heapify(heap)
        parent = list(range(m))
        # Distances between merged clusters live in a dict keyed by the
        # (new) cluster ids; new ids continue after m.
        cluster_distance: dict[tuple[int, int], float] = {}

        def get_distance(a: int, b: int) -> float:
            if a < m and b < m:
                return float(distance[min(a, b), max(a, b)])
            return cluster_distance[(min(a, b), max(a, b))]

        next_id = m
        members: dict[int, list[int]] = {i: [i] for i in range(m)}
        while len(alive) > target and heap:
            d, a, b = heapq.heappop(heap)
            if a not in alive or b not in alive:
                continue
            if get_distance(a, b) != d:
                continue
            alive.discard(a)
            alive.discard(b)
            new = next_id
            next_id += 1
            members[new] = members.pop(a) + members.pop(b)
            size_a, size_b = sizes.pop(a), sizes.pop(b)
            sizes[new] = size_a + size_b
            for other in alive:
                # Average linkage (Lance-Williams).
                merged = (
                    size_a * get_distance(a, other) + size_b * get_distance(b, other)
                ) / (size_a + size_b)
                cluster_distance[(min(new, other), max(new, other))] = merged
                heapq.heappush(heap, (merged, min(new, other), max(new, other)))
            alive.add(new)

        labels = np.empty(m, dtype=np.int32)
        centers = []
        for cluster_index, cluster_id in enumerate(sorted(alive)):
            rows = members[cluster_id]
            labels[rows] = cluster_index
            centers.append(points[rows].mean(axis=0))
        self.labels_ = labels
        self.centers_ = np.asarray(centers)
        return self

    def fit_assign(self, sample: np.ndarray, full: np.ndarray) -> np.ndarray:
        self.fit(sample)
        assert self.centers_ is not None
        return assign_to_centroids(np.asarray(full, dtype=np.float64), self.centers_)
