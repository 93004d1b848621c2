"""Unit tests for the clustering algorithms."""

import numpy as np
import pytest

from repro.errors import AlgorithmError
from repro.paper.clustering import (
    CanopyClustering,
    HierarchicalClustering,
    KMeans,
    XMeans,
    assign_to_centroids,
)
from repro.paper.clustering.canopy import jaccard_distances
from repro.paper.clustering.kmeans import pairwise_sq_distances


def two_blobs(n_per_blob: int = 20, seed: int = 0) -> np.ndarray:
    """Two well-separated binary-ish blobs in 8 dimensions."""
    rng = np.random.default_rng(seed)
    a = (rng.random((n_per_blob, 8)) < 0.1).astype(float)
    a[:, :4] = 1.0
    b = (rng.random((n_per_blob, 8)) < 0.1).astype(float)
    b[:, 4:] = 1.0
    return np.vstack([a, b])


def cluster_agreement(labels: np.ndarray, n_per_blob: int) -> bool:
    first = set(labels[:n_per_blob])
    second = set(labels[n_per_blob:])
    return len(first) == 1 and len(second) == 1 and first != second


class TestDistances:
    def test_pairwise_sq_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        centers = np.array([[0.0, 0.0]])
        distances = pairwise_sq_distances(points, centers)
        assert distances[0, 0] == pytest.approx(0.0)
        assert distances[1, 0] == pytest.approx(25.0)

    def test_jaccard_distances(self):
        points = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
        center = np.array([1, 1, 0])
        distances = jaccard_distances(points, center)
        assert distances[0] == pytest.approx(0.0)
        assert distances[1] == pytest.approx(1.0)

    def test_assign_to_centroids(self):
        points = np.array([[0.0], [10.0], [11.0]])
        centers = np.array([[0.0], [10.0]])
        assert list(assign_to_centroids(points, centers)) == [0, 1, 1]


class TestKMeans:
    def test_separates_blobs(self):
        X = two_blobs()
        labels = KMeans(2, seed=1).fit_assign(X, X)
        assert cluster_agreement(labels, 20)

    def test_deterministic_given_seed(self):
        X = two_blobs()
        l1 = KMeans(2, seed=5).fit_assign(X, X)
        l2 = KMeans(2, seed=5).fit_assign(X, X)
        assert np.array_equal(l1, l2)

    def test_k_larger_than_points(self):
        X = np.array([[0.0], [1.0]])
        model = KMeans(5, seed=0).fit(X)
        assert len(model.centers_) <= 2

    def test_invalid_k(self):
        with pytest.raises(AlgorithmError):
            KMeans(0)

    def test_empty_input_rejected(self):
        with pytest.raises(AlgorithmError):
            KMeans(2).fit(np.empty((0, 3)))

    def test_inertia_decreases_with_more_clusters(self):
        X = two_blobs()
        k1 = KMeans(1, seed=0).fit(X)
        k2 = KMeans(2, seed=0).fit(X)
        assert k2.inertia_ <= k1.inertia_


class TestXMeans:
    def test_finds_two_blobs(self):
        X = two_blobs(30)
        model = XMeans(min_k=1, max_k=8, seed=2).fit(X)
        assert 2 <= len(model.centers_) <= 8
        labels = assign_to_centroids(X, model.centers_)
        # Points from different blobs must never share a cluster.
        assert set(labels[:30]).isdisjoint(set(labels[30:]))

    def test_respects_max_k(self):
        X = two_blobs()
        model = XMeans(min_k=1, max_k=2, seed=0).fit(X)
        assert len(model.centers_) <= 2

    def test_fit_assign_covers_all_points(self):
        X = two_blobs()
        labels = XMeans(seed=3).fit_assign(X[::2], X)
        assert len(labels) == len(X)


class TestCanopy:
    def test_tight_duplicates_collapse(self):
        X = np.array([[1, 1, 0, 0]] * 5 + [[0, 0, 1, 1]] * 5, dtype=float)
        model = CanopyClustering(t1=0.8, t2=0.5, seed=0).fit(X)
        assert len(model.centers_) == 2

    def test_assignment(self):
        X = np.array([[1, 1, 0, 0]] * 3 + [[0, 0, 1, 1]] * 3, dtype=float)
        labels = CanopyClustering(t1=0.8, t2=0.5, seed=0).fit_assign(X, X)
        assert cluster_agreement(labels, 3)

    def test_threshold_validation(self):
        with pytest.raises(AlgorithmError):
            CanopyClustering(t1=0.3, t2=0.6)

    def test_assign_before_fit_rejected(self):
        with pytest.raises(AlgorithmError):
            CanopyClustering().assign(np.ones((2, 2)))

    def test_zero_t2_keeps_all_as_centers(self):
        X = np.eye(4)
        model = CanopyClustering(t1=1.0, t2=0.0, seed=0).fit(X)
        assert len(model.centers_) == 4


class TestHierarchical:
    def test_separates_blobs(self):
        X = two_blobs(10)
        labels = HierarchicalClustering(2).fit_assign(X, X)
        assert cluster_agreement(labels, 10)

    def test_target_cluster_count(self):
        X = two_blobs(10)
        model = HierarchicalClustering(3).fit(X)
        assert len(model.centers_) == 3

    def test_more_clusters_than_points(self):
        X = np.eye(3)
        model = HierarchicalClustering(10).fit(X)
        assert len(model.centers_) == 3

    def test_labels_cover_sample(self):
        X = two_blobs(8)
        model = HierarchicalClustering(2).fit(X)
        assert len(model.labels_) == len(X)
        assert set(model.labels_) == {0, 1}

    def test_invalid_cluster_count(self):
        with pytest.raises(AlgorithmError):
            HierarchicalClustering(0)
