"""Unit tests for the clustering method (Algorithm 3)."""

import pytest

from repro.errors import AlgorithmError
from repro.core.baseline import compute_baseline
from repro.paper.cluster_method import compute_clustering, default_cluster_count, feature_matrix
from repro.core.space import ObservationSpace
from repro.qb.hierarchy import Hierarchy
from repro.rdf import EX

from tests.conftest import make_random_space


class TestClusterMethod:
    @pytest.mark.parametrize("algorithm", ["kmeans", "xmeans", "canopy", "hierarchical"])
    def test_output_is_subset_of_baseline(self, algorithm):
        space = make_random_space(80, seed=1)
        truth = compute_baseline(space)
        found = compute_clustering(space, algorithm=algorithm, seed=1)
        assert found.full <= truth.full
        assert found.partial <= truth.partial
        assert found.complementary <= truth.complementary

    def test_recall_bounded(self):
        space = make_random_space(80, seed=2)
        truth = compute_baseline(space)
        found = compute_clustering(space, seed=2)
        recall = found.recall_against(truth)
        assert 0.0 <= recall.full <= 1.0
        assert 0.0 <= recall.partial <= 1.0

    def test_one_cluster_equals_baseline(self):
        """The paper: baseline == clustering with exactly one cluster."""
        space = make_random_space(50, seed=3)
        found = compute_clustering(
            space, algorithm="kmeans", n_clusters=1, sample_rate=1.0, seed=0
        )
        assert found == compute_baseline(space)

    def test_deterministic_given_seed(self):
        space = make_random_space(60, seed=4)
        r1 = compute_clustering(space, seed=7)
        r2 = compute_clustering(space, seed=7)
        assert r1 == r2

    def test_sample_rate_validation(self):
        space = make_random_space(20, seed=0)
        with pytest.raises(AlgorithmError):
            compute_clustering(space, sample_rate=0.0)
        with pytest.raises(AlgorithmError):
            compute_clustering(space, sample_rate=1.5)

    def test_unknown_algorithm(self):
        space = make_random_space(20, seed=0)
        with pytest.raises(AlgorithmError):
            compute_clustering(space, algorithm="dbscan")

    def test_empty_space(self):
        geo = Hierarchy(EX.World)
        space = ObservationSpace((EX.refArea,), {EX.refArea: geo})
        assert compute_clustering(space).total() == 0

    def test_more_clusters_lower_or_equal_recall(self):
        """More clusters -> fewer comparisons -> recall can only drop."""
        space = make_random_space(100, seed=5)
        truth = compute_baseline(space)
        few = compute_clustering(space, algorithm="kmeans", n_clusters=2, seed=1, sample_rate=1.0)
        many = compute_clustering(space, algorithm="kmeans", n_clusters=25, seed=1, sample_rate=1.0)
        assert many.recall_against(truth).partial <= few.recall_against(truth).partial + 1e-9


class TestHelpers:
    def test_default_cluster_count_rule_of_thumb(self):
        assert default_cluster_count(2) == 1
        assert default_cluster_count(200) == 10  # sqrt(100)
        assert default_cluster_count(0) == 1

    def test_feature_matrix_shape(self):
        space = make_random_space(10, seed=0)
        features = feature_matrix(space)
        total_codes = sum(len(space.hierarchies[d]) for d in space.dimensions)
        assert features.shape == (10, total_codes)
        assert set(features.ravel()) <= {0.0, 1.0}
