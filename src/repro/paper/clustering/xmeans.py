"""X-means: k-means with BIC-driven estimation of k (Pelleg & Moore).

Starts from ``min_k`` clusters and repeatedly tries to split each
cluster in two; a split is kept when the Bayesian Information
Criterion of the two-cluster model beats the one-cluster model of that
region.  The paper found x-means (on a 10 % sample) to dominate canopy
and hierarchical clustering in recall at comparable runtimes.
"""

from __future__ import annotations

import numpy as np

from repro.paper.clustering.kmeans import KMeans, assign_to_centroids

__all__ = ["XMeans"]


def _bic(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """BIC of a spherical-Gaussian k-means model (Pelleg & Moore, 2000)."""
    n, dims = points.shape
    k = len(centers)
    if n <= k:
        return -np.inf
    residual = 0.0
    for cluster in range(k):
        mask = labels == cluster
        if mask.any():
            diff = points[mask] - centers[cluster]
            residual += float(np.einsum("ij,ij->", diff, diff))
    variance = residual / max(n - k, 1) / max(dims, 1)
    if variance <= 0:
        variance = 1e-12
    log_likelihood = 0.0
    for cluster in range(k):
        size = int((labels == cluster).sum())
        if size <= 0:
            continue
        log_likelihood += (
            size * np.log(max(size, 1))
            - size * np.log(n)
            - size * dims / 2.0 * np.log(2.0 * np.pi * variance)
            - (size - 1) * dims / 2.0
        )
    parameters = k * (dims + 1)
    return log_likelihood - parameters / 2.0 * np.log(n)


class XMeans:
    """BIC-guided cluster-count selection on top of k-means."""

    def __init__(self, min_k: int = 2, max_k: int = 32, seed: int = 0, max_iter: int = 50):
        self.min_k = max(1, min_k)
        self.max_k = max(self.min_k, max_k)
        self.seed = seed
        self.max_iter = max_iter
        self.centers_: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "XMeans":
        points = np.asarray(points, dtype=np.float64)
        base = KMeans(min(self.min_k, len(points)), seed=self.seed, max_iter=self.max_iter)
        base.fit(points)
        centers = list(base.centers_)  # type: ignore[arg-type]
        improved = True
        round_seed = self.seed
        while improved and len(centers) < self.max_k:
            improved = False
            labels = assign_to_centroids(points, np.asarray(centers))
            next_centers: list[np.ndarray] = []
            for cluster, center in enumerate(centers):
                members = points[labels == cluster]
                if len(members) < 4 or len(centers) + len(next_centers) - cluster >= self.max_k:
                    next_centers.append(center)
                    continue
                round_seed += 1
                split = KMeans(2, seed=round_seed, max_iter=self.max_iter).fit(members)
                split_labels = assign_to_centroids(members, split.centers_)  # type: ignore[arg-type]
                parent_bic = _bic(members, center[None, :], np.zeros(len(members), dtype=np.int32))
                child_bic = _bic(members, split.centers_, split_labels)  # type: ignore[arg-type]
                if child_bic > parent_bic:
                    next_centers.extend(split.centers_)  # type: ignore[arg-type]
                    improved = True
                else:
                    next_centers.append(center)
            centers = next_centers
        self.centers_ = np.asarray(centers)
        return self

    def fit_assign(self, sample: np.ndarray, full: np.ndarray) -> np.ndarray:
        self.fit(sample)
        assert self.centers_ is not None
        return assign_to_centroids(np.asarray(full, dtype=np.float64), self.centers_)
