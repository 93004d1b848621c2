"""Unit tests for rollup_dataset and incremental removal."""

import pytest

from repro.errors import AlgorithmError
from repro.core import compute_baseline, remove_observations
from repro.core.olap import rollup_dataset
from repro.core.space import ObservationSpace
from repro.data.example import EXNS, build_example_cubespace
from repro.qb import CubeSpace, Dataset, DatasetSchema, Hierarchy, Observation
from repro.rdf import EX

from tests.conftest import make_random_space


@pytest.fixture
def population_cube() -> CubeSpace:
    geo = Hierarchy(EX.World)
    geo.add(EX.Greece, EX.World)
    geo.add(EX.Italy, EX.World)
    geo.add(EX.Athens, EX.Greece)
    geo.add(EX.Ioannina, EX.Greece)
    geo.add(EX.Rome, EX.Italy)
    time = Hierarchy(EX.AllTime)
    time.add(EX.Y2020, EX.AllTime)
    cube = CubeSpace()
    cube.add_hierarchy(EX.refArea, geo)
    cube.add_hierarchy(EX.refPeriod, time)
    schema = DatasetSchema(dimensions=(EX.refArea, EX.refPeriod), measures=(EX.pop,))
    ds = Dataset(EX.cities, schema)
    data = [(EX.Athens, 660.0), (EX.Ioannina, 65.0), (EX.Rome, 2800.0)]
    for i, (city, value) in enumerate(data):
        ds.add(Observation(EX[f"c{i}"], EX.cities,
                           {EX.refArea: city, EX.refPeriod: EX.Y2020}, {EX.pop: value}))
    cube.add_dataset(ds)
    return cube


class TestRollupDataset:
    def test_sum_to_country_level(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=1)
        values = {obs.value(EX.refArea): obs.measures[EX.pop] for obs in rolled}
        assert values[EX.Greece] == 725.0
        assert values[EX.Italy] == 2800.0
        assert len(rolled) == 2

    def test_rollup_to_root(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=0)
        assert len(rolled) == 1
        assert next(iter(rolled)).measures[EX.pop] == 3525.0

    def test_avg_aggregation(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=1, aggregation="avg")
        values = {obs.value(EX.refArea): obs.measures[EX.pop] for obs in rolled}
        assert values[EX.Greece] == pytest.approx(362.5)

    def test_identity_rollup_keeps_rows(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=2)
        assert len(rolled) == 3

    def test_coarser_rows_excluded(self, population_cube):
        # Add a country-level row; rolling to city level must skip it.
        ds = population_cube.datasets[EX.cities]
        ds.add(Observation(EX.country, EX.cities,
                           {EX.refArea: EX.Greece, EX.refPeriod: EX.Y2020}, {EX.pop: 999.0}))
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=2)
        assert all(obs.measures[EX.pop] != 999.0 for obs in rolled)

    def test_other_dimensions_preserved(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=1)
        assert all(obs.value(EX.refPeriod) == EX.Y2020 for obs in rolled)

    def test_rollup_result_is_valid_cube_dataset(self, population_cube):
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=1)
        population_cube.datasets[rolled.uri] = rolled
        population_cube.validate()

    def test_errors(self, population_cube):
        with pytest.raises(AlgorithmError):
            rollup_dataset(population_cube, EX.nothere, EX.refArea, 1)
        with pytest.raises(AlgorithmError):
            rollup_dataset(population_cube, EX.cities, EX.sex, 1)
        with pytest.raises(AlgorithmError):
            rollup_dataset(population_cube, EX.cities, EX.refArea, 99)
        with pytest.raises(AlgorithmError):
            rollup_dataset(population_cube, EX.cities, EX.refArea, 1, aggregation="median")

    def test_rollup_consistent_with_containment(self, population_cube):
        """Rolled-up totals equal aggregating via containment links."""
        rolled = rollup_dataset(population_cube, EX.cities, EX.refArea, to_level=1)
        population_cube.datasets[rolled.uri] = rolled
        from repro.core import Method, compute_relationships
        from repro.core.olap import CubeNavigator

        relationships = compute_relationships(population_cube, Method.BASELINE)
        navigator = CubeNavigator.from_cubespace(population_cube, relationships)
        greece_row = next(o for o in rolled if o.value(EX.refArea) == EX.Greece)
        assert navigator.aggregate(greece_row.uri, EX.pop, "sum") == greece_row.measures[EX.pop]


class TestRemoveObservations:
    def test_matches_recompute(self):
        space = make_random_space(40, seed=50)
        result = compute_baseline(space)
        to_remove = [space.observations[i].uri for i in (3, 17, 25)]
        new_space, result = remove_observations(space, result, to_remove)
        assert len(new_space) == 37
        assert result == compute_baseline(new_space)

    def test_metadata_purged(self):
        space = make_random_space(30, seed=51)
        result = compute_baseline(space, collect_partial_dimensions=True)
        victim = space.observations[0].uri
        _, result = remove_observations(space, result, [victim])
        assert all(victim not in pair for pair in result.partial_map)
        assert all(victim not in pair for pair in result.degrees)

    def test_unknown_uri_rejected(self):
        space = make_random_space(10, seed=52)
        result = compute_baseline(space)
        with pytest.raises(AlgorithmError):
            remove_observations(space, result, [EX.ghost])

    def test_add_then_remove_roundtrip(self):
        from repro.core import update_relationships

        space = make_random_space(25, seed=53)
        original = compute_baseline(space)
        record = space.observations[0]
        update_relationships(
            space,
            original,
            [(EX.temp, record.dataset, dict(zip(space.dimensions, record.codes)), record.measures)],
        )
        new_space, reduced = remove_observations(space, original, [EX.temp])
        assert reduced == compute_baseline(new_space)
