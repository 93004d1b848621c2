"""Equivalence and unit tests for the vectorised cube-pair kernels.

The contract under test: the sequential, shared-memory parallel and
incremental cubeMasking paths produce ``RelationshipSet``s identical
to the baseline for all three relationship types, on randomized
synthetic spaces spanning dimension counts, hierarchy depths,
missing-dimension schemas, disjoint measure schemas, and the k=0 and
empty edge cases.
"""

import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.errors import AlgorithmError
from repro.core.api import compute_relationships, update_relationships
from repro.core.baseline import compute_baseline, measure_overlap_matrix
from repro.core.cubemask import build_cubemask_state, compute_cubemask
from repro.core.kernels import (
    attach_arrays,
    build_kernel_plan,
    decode_dim_mask,
    evaluate_pair_block,
    kernel_counters,
    measure_overlap_groups,
    publish_arrays,
    reset_kernel_counters,
)
from repro.core.parallel import compute_cubemask_parallel, prepare_shared_fanout
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.rdf.terms import URIRef

from tests.conftest import make_random_space, make_uniform_hierarchy


def make_varied_space(
    n: int,
    dimension_count: int = 3,
    seed: int = 0,
    missing_rate: float = 0.0,
    disjoint_measures: bool = False,
    fanout: int = 3,
    depth: int = 2,
) -> ObservationSpace:
    """Random space with optionally-missing dimensions and optionally
    disjoint measure schemas (so the measure prefilter actually
    prunes)."""
    rng = np.random.default_rng(seed)
    dimensions = tuple(
        URIRef(f"http://test.example/dim{i}") for i in range(dimension_count)
    )
    hierarchies = {
        dimension: make_uniform_hierarchy(f"d{i}", fanout=fanout, depth=depth)
        for i, dimension in enumerate(dimensions)
    }
    space = ObservationSpace(dimensions, hierarchies)
    dataset = URIRef("http://test.example/ds")
    for index in range(n):
        dims = {}
        for dimension in dimensions:
            if missing_rate and rng.random() < missing_rate:
                continue  # pads to the hierarchy root
            codes = sorted(hierarchies[dimension], key=str)
            dims[dimension] = codes[int(rng.integers(len(codes)))]
        if disjoint_measures:
            measures = {URIRef(f"http://test.example/m{int(rng.integers(3))}")}
        else:
            measures = {
                URIRef("http://test.example/m0"),
                URIRef(f"http://test.example/m{int(rng.integers(3))}"),
            }
        space.add(URIRef(f"http://test.example/obs/{index}"), dataset, dims, measures)
    return space


def make_zero_dimension_space(n: int = 6) -> ObservationSpace:
    space = ObservationSpace((), {})
    for index in range(n):
        space.add(
            URIRef(f"http://test.example/k0/{index}"),
            URIRef("http://test.example/ds"),
            {},
            {URIRef(f"http://test.example/m{index % 2}")},
        )
    return space


class TestMeasureOverlapGroups:
    def test_matches_pairwise_isdisjoint(self):
        space = make_varied_space(40, seed=3, disjoint_measures=True)
        assignment, overlap = measure_overlap_groups(space)
        for a in range(len(space)):
            for b in range(len(space)):
                expected = not space.observations[a].measures.isdisjoint(
                    space.observations[b].measures
                )
                assert bool(overlap[assignment[a], assignment[b]]) is expected

    def test_groups_are_deduplicated(self):
        space = make_random_space(60, seed=4)
        assignment, overlap = measure_overlap_groups(space)
        distinct = {record.measures for record in space.observations}
        assert overlap.shape == (len(distinct), len(distinct))
        assert assignment.shape == (60,)

    def test_baseline_matrix_is_expansion_of_groups(self):
        space = make_varied_space(30, seed=5, disjoint_measures=True)
        matrix = measure_overlap_matrix(space)
        assignment, overlap = measure_overlap_groups(space)
        assert np.array_equal(matrix, overlap[assignment[:, None], assignment[None, :]])

    def test_empty_space(self):
        assignment, overlap = measure_overlap_groups(ObservationSpace((), {}))
        assert assignment.shape == (0,)
        assert overlap.shape == (0, 0)


class TestEvaluatePairBlock:
    """The whole space as one cube pair, checked against the reference
    predicates of ObservationSpace."""

    @pytest.mark.parametrize("seed,chunk", [(7, 512), (8, 7), (9, 1)])
    def test_matches_reference_predicates(self, seed, chunk):
        space = make_varied_space(50, seed=seed, missing_rate=0.2)
        plan = build_kernel_plan(space)
        rows = np.arange(len(space))
        block = evaluate_pair_block(
            plan,
            rows,
            rows,
            same_cube=True,
            collect_partial_dimensions=True,
            chunk=chunk,
        )
        expected_full, expected_compl, expected_partial = set(), set(), {}
        expected_dims = {}
        for a in range(len(space)):
            for b in range(len(space)):
                if a == b:
                    continue
                if space.is_full_containment(a, b):
                    expected_full.add((a, b))
                if a < b and space.is_complementary(a, b):
                    expected_compl.add((a, b))
                if space.is_partial_containment(a, b):
                    expected_partial[(a, b)] = space.containment_degree(a, b)
                    expected_dims[(a, b)] = space.partial_dimensions(a, b)
        assert set(block.full) == expected_full
        assert set(block.complementary) == expected_compl
        assert {(a, b): count / plan.k for a, b, count in block.partial} == expected_partial
        assert {
            (a, b): decode_dim_mask(plan.dimensions, mask)
            for (a, b, _), mask in zip(block.partial, block.partial_dim_masks)
        } == expected_dims

    def test_not_containing_skips_full_and_complementary(self):
        space = make_random_space(30, seed=10)
        plan = build_kernel_plan(space)
        rows = np.arange(len(space))
        block = evaluate_pair_block(plan, rows, rows, containing=False, same_cube=True)
        assert block.full == [] and block.complementary == []

    def test_empty_rows(self):
        space = make_random_space(10, seed=11)
        plan = build_kernel_plan(space)
        block = evaluate_pair_block(plan, [], np.arange(10))
        assert block.full == [] and block.partial == [] and block.complementary == []

    def test_dim_mask_limit(self):
        dimensions = tuple(URIRef(f"http://test.example/wide{i}") for i in range(65))
        hierarchies = {
            dimension: make_uniform_hierarchy(f"w{i}", fanout=1, depth=1)
            for i, dimension in enumerate(dimensions)
        }
        space = ObservationSpace(dimensions, hierarchies)
        space.add(URIRef("http://test.example/w/0"), URIRef("http://test.example/ds"), {}, {URIRef("http://test.example/m")})
        plan = build_kernel_plan(space)
        with pytest.raises(AlgorithmError):
            evaluate_pair_block(plan, [0], [0], collect_partial_dimensions=True)

    def test_counters_accumulate(self):
        reset_kernel_counters()
        space = make_random_space(20, seed=12)
        plan = build_kernel_plan(space)
        rows = np.arange(len(space))
        evaluate_pair_block(plan, rows, rows, same_cube=True)
        counters = kernel_counters()
        assert counters["kernel_calls"] == 1
        assert counters["kernel_pairs"] == 400
        assert counters["kernel_ns"] > 0


class TestSharedMemoryArrays:
    def test_round_trip_and_read_only(self):
        arrays = {
            "packed": np.arange(24, dtype=np.uint8).reshape(4, 6),
            "offsets": np.array([0, 2, 4], dtype=np.int64),
            "empty": np.zeros((0, 3), dtype=np.int32),
        }
        segment, layout = publish_arrays(arrays)
        try:
            attached, views = attach_arrays(segment.name, layout)
            try:
                for name, array in arrays.items():
                    assert np.array_equal(views[name], array)
                    assert not views[name].flags.writeable
            finally:
                del views
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_publisher_owns_unlink(self):
        segment, layout = publish_arrays({"x": np.ones(8)})
        name = segment.name
        attached, views = attach_arrays(name, layout)
        del views
        attached.close()
        segment.close()
        segment.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


SPACES = [
    ("plain", dict(n=120, seed=21)),
    ("four-dims", dict(n=90, dimension_count=4, seed=22)),
    ("one-dim-deep", dict(n=80, dimension_count=1, seed=23, fanout=2, depth=4)),
    ("missing-dims", dict(n=100, seed=24, missing_rate=0.3)),
    ("disjoint-measures", dict(n=100, seed=25, disjoint_measures=True)),
]


class TestCubemaskKernelEquivalence:
    @pytest.mark.parametrize("label,params", SPACES, ids=[s[0] for s in SPACES])
    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("collect_dims", [True, False])
    def test_kernel_paths_match_python_and_baseline(self, label, params, prefetch, collect_dims):
        space = make_varied_space(**params)
        baseline = compute_baseline(space, collect_partial_dimensions=collect_dims)
        results = {}
        for mode in ("numpy", "auto"):
            results[mode] = compute_cubemask(
                space,
                prefetch_children=prefetch,
                collect_partial_dimensions=collect_dims,
                kernel=mode,
            )
        for mode, result in results.items():
            assert result == baseline, (label, mode)
            assert result.degrees == baseline.degrees, (label, mode)
            if collect_dims:
                assert result.partial_map == baseline.partial_map, (label, mode)

    @pytest.mark.parametrize(
        "targets", [("full",), ("partial",), ("complementary",), ("full", "complementary")]
    )
    def test_targets_respected_on_kernel_path(self, targets):
        space = make_varied_space(80, seed=26)
        baseline = compute_baseline(space, targets=targets)
        numpy_result = compute_cubemask(space, targets=targets, kernel="numpy")
        assert numpy_result == baseline

    def test_zero_dimension_space(self):
        space = make_zero_dimension_space()
        baseline = compute_baseline(space, collect_partial_dimensions=True)
        for mode in ("numpy", "auto"):
            assert compute_cubemask(space, kernel=mode) == baseline

    def test_empty_space(self):
        space = ObservationSpace((), {})
        for mode in ("numpy", "auto"):
            assert compute_cubemask(space, kernel=mode) == RelationshipSet()

    def test_threshold_zero_forces_kernel_on_auto(self):
        """``auto`` has no size threshold left: every pair takes the kernel."""
        space = make_random_space(50, seed=27)
        stats = {}
        compute_cubemask(space, kernel="auto", stats=stats)
        assert stats["kernel_pairs"] > 0
        assert stats["kernel_ns"] > 0

    def test_unknown_kernel_rejected(self):
        space = make_random_space(10, seed=28)
        with pytest.raises(AlgorithmError):
            compute_cubemask(space, kernel="fortran")

    def test_python_kernel_rejected_with_typed_error(self, tmp_path, capsys):
        space = make_random_space(10, seed=28)
        with pytest.raises(AlgorithmError, match="python"):
            compute_cubemask(space, kernel="python")
        with pytest.raises(AlgorithmError, match="python"):
            compute_relationships(space, "cube_masking", kernel="python")
        corpus = tmp_path / "corpus.ttl"
        assert main(["generate", "--kind", "realworld", "--scale", "0.0005",
                     "--output", str(corpus)]) == 0
        code = main(["compute", "--input", str(corpus), "--method", "cube_masking",
                     "--kernel", "python", "--output", str(tmp_path / "links.nt")])
        assert code == 3
        assert "repro: error: unsupported kernel mode 'python'" in capsys.readouterr().err


class TestCubemaskStats:
    def test_diagonal_pairs_counted_as_pruned(self):
        """A single-cube space: n*n member products, n of them on the
        a == b diagonal, which is never actually compared."""
        space = ObservationSpace((), {})
        for index in range(8):
            space.add(
                URIRef(f"http://test.example/s/{index}"),
                URIRef("http://test.example/ds"),
                {},
                {URIRef("http://test.example/m")},
            )
        stats = {}
        compute_cubemask(space, stats=stats)
        assert stats["cubes"] == 1
        assert stats["instance_comparisons"] == 8 * 8 - 8
        assert stats["pruned_comparisons"] == 8

    def test_measure_prefilter_pruning_reported(self):
        space = make_varied_space(100, seed=30, disjoint_measures=True)
        stats = {}
        compute_cubemask(space, stats=stats)
        if stats["pruned_cube_pairs"]:
            assert stats["pruned_comparisons"] > 0

    def test_stats_identical_across_kernel_paths(self):
        space = make_varied_space(90, seed=31, disjoint_measures=True)
        by_mode = {}
        for mode in ("numpy", "auto"):
            stats = {}
            compute_cubemask(space, stats=stats, kernel=mode)
            by_mode[mode] = stats
        for key in (
            "cubes",
            "cube_pairs",
            "instance_comparisons",
            "pruned_comparisons",
            "pruned_cube_pairs",
        ):
            assert by_mode["numpy"][key] == by_mode["auto"][key]

    def test_kernel_timing_counters(self):
        space = make_random_space(80, seed=32)
        auto_stats, numpy_stats = {}, {}
        compute_cubemask(space, stats=auto_stats, kernel="auto")
        compute_cubemask(space, stats=numpy_stats, kernel="numpy")
        for stats in (auto_stats, numpy_stats):
            assert stats["kernel_pairs"] >= stats["instance_comparisons"] > 0
            assert stats["kernel_ns"] > 0


class TestParallelKernelEquivalence:
    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    def test_parallel_matches_sequential(self, mode):
        space = make_varied_space(130, seed=40, missing_rate=0.2)
        sequential = compute_cubemask(space)
        parallel = compute_cubemask_parallel(
            space, workers=2, min_parallel_observations=0, kernel=mode
        )
        assert parallel == sequential
        assert parallel.degrees == sequential.degrees

    def test_initializer_payload_is_o_metadata(self):
        """The per-worker payload must not scale with the observation
        count — the space is shared, not pickled."""
        sizes = {}
        for n in (200, 800):
            space = make_random_space(n, seed=41)
            state = build_cubemask_state(space, ("complementary", "full", "partial"))
            segment, meta = prepare_shared_fanout(state)
            try:
                sizes[n] = len(pickle.dumps((segment.name, meta)))
            finally:
                segment.close()
                segment.unlink()
            assert sizes[n] * 20 < len(pickle.dumps(space))
        # 4x the observations must not even double the payload.
        assert sizes[800] < 2 * sizes[200]

    def test_state_arrays_cover_cube_members_exactly(self):
        space = make_random_space(70, seed=42)
        state = build_cubemask_state(space, ("full",))
        members = state["members"]
        offsets = state["cube_offsets"]
        assert offsets[-1] == len(space)
        assert sorted(members.tolist()) == list(range(len(space)))
        from repro.core.lattice import CubeLattice

        lattice = CubeLattice(space)
        for index, cube in enumerate(sorted(lattice.nodes)):
            rows = members[offsets[index] : offsets[index + 1]].tolist()
            assert rows == lattice.nodes[cube]


class TestUpdateRelationshipsKernel:
    @pytest.mark.parametrize("mode", ["numpy", "auto"])
    def test_incremental_insert_matches_batch(self, mode):
        space = make_varied_space(60, seed=50, missing_rate=0.2)
        result = compute_cubemask(space, collect_partial_dimensions=True, kernel=mode)
        extra_space = make_varied_space(75, seed=50, missing_rate=0.2)
        new = [
            (
                URIRef(str(record.uri) + "-new"),
                record.dataset,
                dict(zip(extra_space.dimensions, record.codes)),
                record.measures,
            )
            for record in extra_space.observations[60:]
        ]
        update_relationships(space, result, new)
        batch = compute_baseline(space, collect_partial_dimensions=True)
        assert result == batch
        assert result.degrees == batch.degrees
        assert result.partial_map == batch.partial_map

    def test_kernel_and_python_deltas_identical(self):
        """The reported delta is exactly the baseline's before/after difference."""
        space = make_random_space(50, seed=51)
        before = compute_baseline(space, collect_partial_dimensions=True)
        result = compute_cubemask(space, collect_partial_dimensions=True)
        new = [
            (
                URIRef(f"http://test.example/new/{i}"),
                URIRef("http://test.example/ds"),
                dict(zip(space.dimensions, space.observations[i].codes)),
                space.observations[i].measures,
            )
            for i in range(10)
        ]
        _, delta = update_relationships(space, result, new, return_delta=True)
        after = compute_baseline(space, collect_partial_dimensions=True)
        assert delta.added_full == after.full - before.full
        assert delta.added_partial == after.partial - before.partial
        assert delta.added_complementary == after.complementary - before.complementary
        assert delta.partial_map == {pair: after.partial_map[pair] for pair in delta.added_partial}
        assert delta.degrees == {pair: after.degrees[pair] for pair in delta.added_partial}


class TestDimMaskCapacity:
    """The 64-dimension partial-dimension-mask cap fails at plan-build
    time with a typed error naming the offending width — never
    mid-block."""

    def test_ensure_capacity_boundary(self):
        from repro.core.kernels import DIM_MASK_LIMIT, ensure_dim_mask_capacity

        ensure_dim_mask_capacity(DIM_MASK_LIMIT)  # at the limit: fine
        with pytest.raises(AlgorithmError) as exc:
            ensure_dim_mask_capacity(DIM_MASK_LIMIT + 1)
        assert str(DIM_MASK_LIMIT + 1) in str(exc.value)
        assert str(DIM_MASK_LIMIT) in str(exc.value)

    def test_plan_build_rejects_wide_bus(self):
        space = make_varied_space(4, dimension_count=65, seed=52)
        with pytest.raises(AlgorithmError, match="65"):
            build_kernel_plan(space, collect_partial_dimensions=True)
        # Without dimension collection the same bus plans fine.
        plan = build_kernel_plan(space)
        assert plan.k == 65

    def test_evaluate_pair_block_rejects_before_any_tile(self):
        space = make_varied_space(4, dimension_count=65, seed=52)
        plan = build_kernel_plan(space)
        rows = np.arange(len(space), dtype=np.int64)
        with pytest.raises(AlgorithmError, match="65"):
            evaluate_pair_block(
                plan, rows, rows, collect_partial_dimensions=True
            )

    def test_wide_bus_partial_dimensions_match_baseline(self):
        """The kernel counts on a 65-dimension bus; the sequential path
        decodes ``map_P`` per pair when it emits."""
        space = make_varied_space(12, dimension_count=65, seed=53, missing_rate=0.3)
        baseline = compute_baseline(space, collect_partial_dimensions=True)
        result = compute_cubemask(space, collect_partial_dimensions=True)
        assert result == baseline
        assert result.partial_map == baseline.partial_map
        assert result.degrees == baseline.degrees

    def test_parallel_wide_bus_degrades_to_sequential(self):
        space = make_varied_space(12, dimension_count=65, seed=53, missing_rate=0.3)
        parallel = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            collect_partial_dimensions=True,
        )
        sequential = compute_baseline(space, collect_partial_dimensions=True)
        assert parallel == sequential
        assert parallel.partial_map == sequential.partial_map
