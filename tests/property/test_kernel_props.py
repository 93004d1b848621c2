"""Property-based equivalence: every compute path vs the oracle.

Hypothesis drives random spaces (random hierarchies, missing
dimensions, 0..N observations) through the baseline, the sequential
cubeMasking path, the runner's ``score_range`` units and the
incremental path, asserting ``RelationshipSet``s identical to the
executable oracle (:mod:`tests.oracle`, a double loop over the
reference predicates) — including degrees and partial-dimension maps —
and path-independent pruning statistics.
Chunk/tile boundaries are swept explicitly: a block split at every
possible boundary must produce the same partial results and dimension
masks as one monolithic evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compute_baseline, compute_cubemask, update_relationships
from repro.core.cubemask import STAT_KEYS, build_cubemask_state, score_range
from repro.core.kernels import build_kernel_plan, evaluate_pair_block
from repro.core.parallel import enumerate_unit_ranges
from repro.core.results import RelationshipSet

from tests.oracle import oracle
from tests.property.strategies import observation_spaces

ALL_TARGETS = ("complementary", "full", "partial")


@given(observation_spaces(max_observations=18), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_kernel_matches_python_and_baseline(space, prefetch, collect_dims):
    """The baseline and sequential cubeMasking runs (``kernel`` "auto"
    and "numpy") equal the oracle, and the cubeMasking stats equal the
    planner's precomputed counters."""
    expected = oracle(space)
    baseline = compute_baseline(space, collect_partial_dimensions=collect_dims)
    auto_stats, numpy_stats = {}, {}
    auto_result = compute_cubemask(
        space,
        prefetch_children=prefetch,
        collect_partial_dimensions=collect_dims,
        stats=auto_stats,
    )
    numpy_result = compute_cubemask(
        space,
        prefetch_children=prefetch,
        collect_partial_dimensions=collect_dims,
        kernel="numpy",
        stats=numpy_stats,
    )
    for result in (baseline, auto_result, numpy_result):
        assert result == expected
        assert result.degrees == expected.degrees
        if collect_dims:
            assert result.partial_map == expected.partial_map
    for key in STAT_KEYS:
        if key != "kernel_ns":
            assert auto_stats[key] == numpy_stats[key], key
    if prefetch and len(space):
        state = build_cubemask_state(space, ALL_TARGETS, collect_partial_dimensions=collect_dims)
        unit_counts = {"kernel_pairs": 0, "kernel_ns": 0}
        score_range(state, 0, len(state["pairs"]), unit_counts)
        expected = dict(state["counts"], kernel_pairs=unit_counts["kernel_pairs"])
        for key in STAT_KEYS:
            if key != "kernel_ns":
                assert auto_stats[key] == expected[key], key


@given(
    observation_spaces(max_observations=16),
    st.booleans(),
    st.sampled_from([1, 3, 10_000]),
)
@settings(max_examples=20, deadline=None)
def test_parallel_scoring_matches_python(space, collect_dims, unit_size):
    """The runner's scoring path (shared state + ``score_range``
    units) agrees with the oracle on partial results *and*
    ``partial_dim_masks`` — including ``unit_size=1`` single-cube-pair
    units and one monolithic range."""
    expected = oracle(space)
    state = build_cubemask_state(space, ALL_TARGETS, collect_partial_dimensions=collect_dims)
    result = RelationshipSet()
    for _, start, stop in enumerate_unit_ranges(len(state["pairs"]), unit_size):
        result.merge(score_range(state, start, stop))
    assert result == expected
    assert result.degrees == expected.degrees
    if collect_dims:
        assert result.partial_map == expected.partial_map


@given(
    observation_spaces(max_observations=16),
    st.sampled_from([1, 2, 7]),
    st.sampled_from([1, 5, 1 << 20]),
)
@settings(max_examples=20, deadline=None)
def test_pair_block_chunk_and_tile_invariance(space, chunk, tile_pairs):
    """Chunk and tile boundaries never change the kernel's output:
    the bitset pass split into 1-row chunks / tiny tiles matches one
    unsplit evaluation pairwise, masks included."""
    if len(space) < 2 or not space.dimensions:
        return
    plan = build_kernel_plan(space, collect_partial_dimensions=True)
    rows = np.arange(len(space), dtype=np.int64)

    def snapshot(block):
        return (
            sorted(zip(block.full_a.tolist(), block.full_b.tolist())),
            sorted(zip(block.compl_a.tolist(), block.compl_b.tolist())),
            sorted(
                zip(
                    block.partial_a.tolist(),
                    block.partial_b.tolist(),
                    block.partial_counts.tolist(),
                    block.partial_masks.tolist(),
                )
            ),
        )

    reference = evaluate_pair_block(
        plan, rows, rows, same_cube=True, collect_partial_dimensions=True
    )
    split = evaluate_pair_block(
        plan,
        rows,
        rows,
        same_cube=True,
        collect_partial_dimensions=True,
        chunk=chunk,
        tile_pairs=tile_pairs,
    )
    assert snapshot(split) == snapshot(reference)


@given(observation_spaces(max_observations=14), st.integers(min_value=1, max_value=13))
@settings(max_examples=15, deadline=None)
def test_incremental_kernel_matches_python(space, split_at):
    """Incremental runs from a random split — seeded from either the
    baseline or cubeMasking — equal the oracle of the whole space."""
    n = len(space)
    if n < 2:
        return
    expected = oracle(space)
    split = min(split_at, n - 1)
    arrivals = [
        (r.uri, r.dataset, dict(zip(space.dimensions, r.codes)), r.measures)
        for r in space.observations[split:]
    ]
    for seed in (compute_baseline, compute_cubemask):
        grown = space.select(range(split))
        result = seed(grown, collect_partial_dimensions=True)
        update_relationships(grown, result, arrivals)
        assert result == expected
        assert result.degrees == expected.degrees
        assert result.partial_map == expected.partial_map
