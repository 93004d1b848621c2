"""Unit tests for the parallel cubeMasking variant.

This host may have a single core, so the tests verify *correctness*
(bit-identical output) rather than speed — below and above the
``min_parallel_observations`` threshold, with a single worker, and
under heavily skewed cube sizes.
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.core.parallel import compute_cubemask_parallel, enumerate_unit_ranges
from repro.rdf.terms import URIRef

from tests.conftest import make_random_space


def make_skewed_space(n_dense: int = 150, n_sparse: int = 25, seed: int = 7):
    """A space where one cube holds the overwhelming majority of
    observations — the worst case for naive range balancing."""
    space = make_random_space(n_sparse, seed=seed)
    base = space.observations[0]
    dims = dict(zip(space.dimensions, base.codes))
    for index in range(n_dense):
        space.add(
            URIRef(f"http://test.example/dense/{index}"),
            base.dataset,
            dims,
            base.measures,
        )
    return space


class TestParallelCubemask:
    def test_small_input_falls_back(self):
        space = make_random_space(60, seed=60)
        result = compute_cubemask_parallel(space, min_parallel_observations=512)
        assert result == compute_cubemask(space)

    def test_parallel_matches_sequential(self):
        space = make_random_space(150, seed=61)
        parallel = compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=10
        )
        assert parallel == compute_cubemask(space)

    def test_threshold_boundary_engages_pool(self):
        """Exactly at the threshold the parallel path runs (not the fallback)."""
        space = make_random_space(120, seed=64)
        seen = []
        parallel = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=120,
            on_unit_complete=lambda unit_id, delta: seen.append(unit_id),
        )
        assert parallel == compute_cubemask(space)
        assert seen  # callbacks prove the unit-wise executor ran

    def test_below_threshold_skips_pool(self):
        space = make_random_space(119, seed=64)
        seen = []
        result = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=120,
            on_unit_complete=lambda unit_id, delta: seen.append(unit_id),
        )
        assert result == compute_cubemask(space)
        assert seen == []  # sequential fallback: no units, no pool

    def test_single_worker_matches_sequential(self):
        space = make_random_space(130, seed=65)
        parallel = compute_cubemask_parallel(
            space, workers=1, min_parallel_observations=10
        )
        assert parallel == compute_cubemask(space)

    def test_skewed_cube_sizes_match_sequential(self):
        space = make_skewed_space()
        parallel = compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=10
        )
        sequential = compute_cubemask(space)
        assert parallel == sequential
        assert len(parallel.complementary) > 1000  # the dense cube really is dense

    def test_targets_respected(self):
        space = make_random_space(120, seed=62)
        parallel = compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=10, targets=("full",)
        )
        sequential = compute_cubemask(space, targets=("full",))
        assert parallel == sequential
        assert parallel.partial == set() and parallel.complementary == set()

    def test_degrees_preserved(self):
        space = make_random_space(120, seed=63)
        parallel = compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=10
        )
        sequential = compute_cubemask(space)
        for pair in sequential.partial:
            assert parallel.degree(*pair) == pytest.approx(sequential.degree(*pair))


class TestUnitHooks:
    def test_completed_units_are_skipped(self):
        space = make_random_space(120, seed=66)
        first_pass: dict = {}
        full = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            unit_size=32,
            on_unit_complete=lambda unit_id, delta: first_pass.setdefault(unit_id, delta),
        )
        skip = set(list(first_pass)[: len(first_pass) // 2])
        second_pass: list = []
        partial = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            unit_size=32,
            completed_units=skip,
            on_unit_complete=lambda unit_id, delta: second_pass.append(unit_id),
        )
        assert set(second_pass) == set(first_pass) - skip
        # merging the skipped units' deltas back reconstructs the result
        for unit_id in skip:
            partial.merge(first_pass[unit_id])
        assert partial == full

    def test_enumerate_unit_ranges_covers_everything(self):
        ranges = enumerate_unit_ranges(100, 32)
        assert ranges[0] == (0, 0, 32)
        assert ranges[-1] == (3, 96, 100)
        assert sum(stop - start for _, start, stop in ranges) == 100
        assert enumerate_unit_ranges(0, 32) == []


class TestWorkerKernelComposition:
    """Workers score pairs with the vectorised kernel and report it."""

    def test_stats_match_sequential_and_count_worker_kernel_pairs(self):
        space = make_random_space(150, seed=67)
        seq_stats: dict = {}
        sequential = compute_cubemask(
            space, kernel="numpy", stats=seq_stats, collect_partial_dimensions=True
        )
        par_stats: dict = {}
        parallel = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=10,
            kernel="numpy",
            stats=par_stats,
            collect_partial_dimensions=True,
        )
        assert parallel == sequential
        assert parallel.degrees == sequential.degrees
        assert parallel.partial_map == sequential.partial_map
        # Worker fan-out demonstrably ran the vectorised kernel, and the
        # merged counters are path-independent with the sequential run.
        assert par_stats["kernel_pairs"] > 0
        for key in ("cubes", "cube_pairs", "instance_comparisons",
                    "pruned_comparisons", "pruned_cube_pairs", "kernel_pairs"):
            assert par_stats[key] == seq_stats[key], key

    def test_worker_counter_deltas_merge_into_parent(self):
        from repro.core import kernels as _kernels

        space = make_random_space(140, seed=68)
        before = _kernels.kernel_counters()
        stats: dict = {}
        compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=10, kernel="numpy", stats=stats
        )
        after = _kernels.kernel_counters()
        # The pairs scored inside worker processes land in the parent's
        # process-wide repro_kernel_* counters via merge_counters.
        assert after["kernel_pairs"] - before["kernel_pairs"] >= stats["kernel_pairs"] > 0

    def test_single_pair_units_roundtrip_partial_dimensions(self):
        """unit_size=1 exercises single-cube-pair worker payloads."""
        space = make_random_space(130, seed=70)
        parallel = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            unit_size=1,
            kernel="numpy",
            collect_partial_dimensions=True,
        )
        sequential = compute_baseline(space, collect_partial_dimensions=True)
        assert parallel == sequential
        assert parallel.partial_map == sequential.partial_map
        assert parallel.degrees == sequential.degrees
