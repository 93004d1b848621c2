"""Unit tests for the streaming baseline and the hybrid method."""

import pytest

from repro.errors import AlgorithmError
from repro.core import Method, compute_baseline, compute_baseline_streaming, compute_relationships
from repro.paper.cluster_method import compute_clustering
from repro.paper.hybrid import compute_hybrid
from repro.data.example import build_example_space

from tests.conftest import make_random_space


class TestStreaming:
    @pytest.mark.parametrize("block_size", [1, 3, 16, 1000])
    def test_equals_baseline_any_block_size(self, block_size):
        space = make_random_space(40, seed=30)
        assert compute_baseline_streaming(space, block_size=block_size) == compute_baseline(space)

    def test_example(self):
        space = build_example_space()
        assert compute_baseline_streaming(space, block_size=3) == compute_baseline(space)

    def test_partial_dimensions_rederived(self):
        space = build_example_space()
        streamed = compute_baseline_streaming(
            space, block_size=4, collect_partial_dimensions=True
        )
        full = compute_baseline(space, collect_partial_dimensions=True)
        assert streamed.partial_map == full.partial_map

    def test_targets(self):
        space = make_random_space(30, seed=31)
        truth = compute_baseline(space)
        only_full = compute_baseline_streaming(space, targets=("full",))
        assert only_full.full == truth.full
        assert only_full.partial == set() and only_full.complementary == set()

    def test_invalid_block_size(self):
        space = build_example_space()
        with pytest.raises(AlgorithmError):
            compute_baseline_streaming(space, block_size=0)

    def test_via_facade(self):
        space = build_example_space()
        assert compute_relationships(space, Method.STREAMING) == compute_baseline(space)


class TestHybrid:
    def test_exact_on_full_and_complementary(self):
        space = make_random_space(60, seed=32)
        truth = compute_baseline(space)
        hybrid = compute_hybrid(space, seed=2)
        assert hybrid.full == truth.full
        assert hybrid.complementary == truth.complementary

    def test_partial_matches_clustering_arm(self):
        space = make_random_space(60, seed=33)
        hybrid = compute_hybrid(space, algorithm="kmeans", seed=5)
        clustered = compute_clustering(
            space, algorithm="kmeans", seed=5, targets=("partial",)
        )
        assert hybrid.partial == clustered.partial

    def test_partial_subset_of_truth(self):
        space = make_random_space(60, seed=34)
        truth = compute_baseline(space)
        hybrid = compute_hybrid(space, seed=3)
        assert hybrid.partial <= truth.partial

    def test_targets_respected(self):
        space = make_random_space(30, seed=35)
        result = compute_hybrid(space, targets=("full",), seed=0)
        assert result.partial == set() and result.complementary == set()

    def test_via_facade(self):
        space = make_random_space(30, seed=36)
        assert compute_relationships(space, Method.HYBRID, seed=4) == compute_hybrid(
            space, seed=4
        )


class TestCubemaskStats:
    def test_stats_collected(self):
        space = make_random_space(50, seed=37)
        from repro.core import compute_cubemask

        stats: dict = {}
        compute_cubemask(space, stats=stats)
        n = len(space)
        assert stats["cubes"] >= 1
        assert stats["cube_pairs"] >= 1
        assert 0 < stats["instance_comparisons"]

    def test_pruning_saves_comparisons(self):
        space = make_random_space(80, seed=38, fanout=2, depth=4)
        from repro.core import compute_cubemask

        stats: dict = {}
        compute_cubemask(space, targets=("full", "complementary"), stats=stats)
        assert stats["instance_comparisons"] < len(space) ** 2
