"""Built networks are read-only, each grid is built once per process, and
engines and controllers share the tables derived from one network."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.control.batch import BatchUtilBpController
from repro.control.factory import build_batch_controller
from repro.core.engine import FacadeTables, build_batch_engine, build_engine
from repro.experiments.runner import run_scenario
from repro.meso.events import EventCountsSimulator
from repro.meso.vectorized import BatchCountsSimulator
from repro.model.grid import GRID_CACHE_SIZE, _build_grid, build_grid_network
from repro.model.routing import RouteSampler
from repro.scenarios import build_named_scenario
from repro.util.rng import RngStreams


@pytest.fixture
def cold_cache():
    """An empty grid cache: the next build of every grid is a miss."""
    _build_grid.cache_clear()
    yield
    _build_grid.cache_clear()


class TestReadOnlyNetwork:
    @pytest.mark.parametrize(
        "field", ("intersections", "roads", "road_origin", "road_destination")
    )
    def test_network_fields_cannot_be_reassigned(self, grid3x3, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid3x3, field, {})

    @pytest.mark.parametrize(
        "field", ("intersections", "roads", "road_origin", "road_destination")
    )
    def test_network_mappings_reject_item_assignment(self, grid3x3, field):
        mapping = getattr(grid3x3, field)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]

    @pytest.mark.parametrize(
        "field",
        (
            "node_id",
            "in_roads",
            "out_roads",
            "movements",
            "phases",
            "approach_of",
            "exit_of",
        ),
    )
    def test_intersection_fields_cannot_be_reassigned(self, intersection, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(intersection, field, getattr(intersection, field))

    @pytest.mark.parametrize(
        "field", ("in_roads", "out_roads", "movements", "approach_of", "exit_of")
    )
    def test_intersection_mappings_reject_item_assignment(
        self, intersection, field
    ):
        mapping = getattr(intersection, field)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]

    def test_phases_are_a_tuple(self, intersection):
        assert isinstance(intersection.phases, tuple)
        with pytest.raises(AttributeError):
            intersection.phases.append(intersection.phases[0])
        with pytest.raises(TypeError):
            intersection.phases[0] = intersection.phases[1]

    def test_constructor_copies_its_mappings(self, grid3x3):
        roads = dict(grid3x3.roads)
        network = dataclasses.replace(grid3x3, roads=roads)
        roads.clear()
        assert len(network.roads) == len(grid3x3.roads)

    def test_pickle_round_trip(self, grid3x3):
        clone = pickle.loads(pickle.dumps(grid3x3))
        assert clone == grid3x3
        assert clone is not grid3x3
        assert isinstance(clone.intersections["J11"].phases, tuple)


class TestGridCache:
    def test_one_build_per_topology(self, cold_cache):
        scenarios = [
            build_named_scenario("steady-10x10", seed=seed, load=load)
            for seed in range(9)
            for load in (0.1, 1.0)
        ]
        assert len(scenarios) == 18
        info = _build_grid.cache_info()
        assert (info.misses, info.hits) == (1, 17)
        assert all(s.network is scenarios[0].network for s in scenarios)
        assert len({s.seed for s in scenarios}) == 9

    def test_paper_builder_shares_the_cache(self, cold_cache):
        from repro.scenarios import build_scenario

        a = build_scenario("I", seed=1)
        b = build_scenario("IV", seed=2)
        assert a.network is b.network is build_named_scenario("steady-3x3").network
        assert _build_grid.cache_info().misses == 1

    @pytest.mark.parametrize(
        "change",
        (
            {"rows": 2},
            {"cols": 4},
            {"capacity": 60},
            {"road_length": 150.0},
            {"speed_limit": 10.0},
            {"service_rate": 0.5},
            {"boundary_capacity": 30},
            {"capacity_overrides": {"J00->J01": 30}},
            {"node_service_rates": {"J11": 0.5}},
        ),
        ids=lambda change: next(iter(change)),
    )
    def test_every_argument_is_part_of_the_key(self, change):
        base = dict(rows=3, cols=3)
        reference = build_grid_network(**base)
        changed = build_grid_network(**{**base, **change})
        assert changed is not reference
        assert changed != reference

    def test_typed_key(self):
        assert build_grid_network(2, 2, capacity=60) is not build_grid_network(
            2, 2, capacity=60.0
        )

    def test_mapping_arguments_are_normalized(self):
        overrides = {"J00->J01": 30, "J01->J00": 40}
        first = build_grid_network(2, 2, capacity_overrides=overrides)
        reordered = dict(reversed(list(overrides.items())))
        assert build_grid_network(2, 2, capacity_overrides=reordered) is first
        assert build_grid_network(2, 2, capacity_overrides={}) is (
            build_grid_network(2, 2)
        )

    def test_cache_is_bounded(self, cold_cache):
        first = build_grid_network(1, 1)
        for size in range(2, GRID_CACHE_SIZE + 2):
            build_grid_network(1, size)
        assert _build_grid.cache_info().currsize == GRID_CACHE_SIZE
        assert build_grid_network(1, 1) is not first

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="does not build"):
                build_grid_network(2, 2, capacity_overrides={"J09->J10": 30})

    @pytest.mark.parametrize("engine", ("meso-counts", "meso-events", "meso-vec"))
    def test_cold_and_warm_runs_are_equal(self, cold_cache, engine):
        knobs = dict(
            engine=engine,
            controller="util-bp",
            duration=120.0,
            record_queues=(("J11", "J01->J11"),),
        )
        cold = build_named_scenario("surge-4x4", seed=7)
        cold_result = run_scenario(cold, **knobs).to_dict()
        warm = build_named_scenario("surge-4x4", seed=7)
        assert warm.network is cold.network
        assert run_scenario(warm, **knobs).to_dict() == cold_result


class TestSharedTables:
    def test_engines_and_controllers_share_static_tables(self):
        scenario = build_named_scenario("steady-3x3", seed=1)
        args = (scenario.network, scenario.demand, scenario.turning)
        vec_a = BatchCountsSimulator(*args, seeds=(1, 2))
        vec_b = BatchCountsSimulator(*args, seeds=(3,))
        assert vec_a._m_stage is vec_b._m_stage
        assert vec_a._tables is vec_b._tables
        assert vec_a._routers[0]._route_cache is vec_b._routers[0]._route_cache
        events_a = EventCountsSimulator(*args, seed=1)
        events_b = EventCountsSimulator(*args, seed=2)
        assert events_a.movement_layout is events_b.movement_layout
        assert events_a._transit is not events_b._transit
        ctl_a = BatchUtilBpController(scenario.network, 1)
        ctl_b = BatchUtilBpController(scenario.network, 16)
        assert ctl_a._layout is ctl_b._layout

    def test_one_movement_axis_per_network(self):
        """Kernels and engines read one FacadeTables: the same tuples."""
        scenario = build_named_scenario("steady-3x3", seed=1)
        network = scenario.network
        axis = FacadeTables.of(network)
        layouts = [
            (kernel.node_ids, kernel.movement_keys)
            for kernel in (
                build_batch_controller("util-bp", network, 1),
                build_batch_controller("cap-bp", network, 4, period=14),
                build_batch_controller("fixed-time", network, 1, period=20),
            )
        ]
        layouts.append(build_batch_engine([scenario]).movement_layout)
        layouts += [
            build_engine(scenario, engine).movement_layout
            for engine in ("meso", "micro", "meso-events")
        ]
        for node_ids, movement_keys in layouts:
            assert node_ids is axis.node_ids
            assert movement_keys is axis.movement_keys
        assert len(axis.movement_keys) == axis.n_movements == 108

    def test_shared_arrays_are_read_only(self):
        scenario = build_named_scenario("steady-3x3", seed=1)
        sim = BatchCountsSimulator(
            scenario.network, scenario.demand, scenario.turning
        )
        with pytest.raises(ValueError):
            sim._caps[0] = 1
        layout = BatchUtilBpController(scenario.network, 1)._layout
        with pytest.raises(ValueError):
            layout.m_out_cap[0] = 1

    def test_samplers_share_routes_but_not_draws(self, grid3x3):
        from repro.scenarios.patterns import TURNING

        a = RouteSampler(grid3x3, TURNING, RngStreams(1).get("routing"))
        b = RouteSampler(grid3x3, TURNING, RngStreams(1).get("routing"))
        entry = grid3x3.entry_roads()[0]
        routes_a = [a.sample_route(entry) for _ in range(50)]
        routes_b = [b.sample_route(entry) for _ in range(50)]
        assert routes_a == routes_b
        assert all(x is y for x, y in zip(routes_a, routes_b))
