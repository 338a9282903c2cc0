"""Tests for repro.meso — the store-and-forward engine."""

import pytest

from repro.scenarios.patterns import TURNING
from repro.meso.road_state import RoadState
from repro.meso.simulator import MesoSimulator
from repro.meso.vehicle import MesoVehicle
from repro.model.arrivals import ArrivalSchedule
from repro.model.grid import build_grid_network
from repro.model.plant import PlantConstants
from repro.model.roads import Road
from repro.model.routing import TurningProbabilities


def make_sim(
    rows=1,
    cols=1,
    rate=0.2,
    seed=0,
    capacity=120,
    **plant,
):
    network = build_grid_network(rows, cols, capacity=capacity)
    demand = {
        entry: ArrivalSchedule.constant(rate)
        for entry in network.entry_roads()
    }
    return MesoSimulator(
        network, demand, TURNING, seed=seed, plant=PlantConstants(**plant)
    )


ALL_GREEN_1 = {"J00": 1}


class TestRoadState:
    def _state(self, capacity=3):
        state = RoadState(Road("r", capacity=capacity))
        state.add_movement_lane("out")
        return state

    def test_occupancy_counts_transit_and_queued(self):
        state = self._state()
        vehicle = MesoVehicle(1, ["r", "out"])
        state.enter_transit(vehicle, ready_time=5.0)
        assert state.occupancy == 1
        state.promote_arrivals(5.0)
        assert state.occupancy == 1
        assert state.queue_length("out") == 1

    def test_capacity_enforced(self):
        state = self._state(capacity=1)
        state.enter_transit(MesoVehicle(1, ["r", "out"]), 0.0)
        with pytest.raises(ValueError):
            state.enter_transit(MesoVehicle(2, ["r", "out"]), 0.0)

    def test_promotion_respects_ready_time(self):
        state = self._state()
        state.enter_transit(MesoVehicle(1, ["r", "out"]), ready_time=10.0)
        assert state.promote_arrivals(9.0) == []
        assert len(state.promote_arrivals(10.0)) == 1

    def test_fifo_order(self):
        state = self._state()
        for i in range(3):
            state.enter_transit(MesoVehicle(i, ["r", "out"]), ready_time=1.0)
        state.promote_arrivals(1.0)
        assert state.pop_served("out").vehicle_id == 0
        assert state.pop_served("out").vehicle_id == 1

    def test_pop_empty_raises(self):
        with pytest.raises(ValueError):
            self._state().pop_served("out")

    def test_approaching_horizon(self):
        state = self._state()
        state.enter_transit(MesoVehicle(1, ["r", "out"]), ready_time=3.0)
        state.enter_transit(MesoVehicle(2, ["r", "out"]), ready_time=30.0)
        assert state.approaching(now=0.0, horizon=5.0) == {"out": 1}


class TestMesoSimulator:
    def test_conservation_of_vehicles(self):
        sim = make_sim(rate=0.3, seed=2)
        for _ in range(300):
            sim.step(1.0, ALL_GREEN_1)
        sim.finalize()
        summary = sim.collector.summary(300.0)
        inside = sim.vehicles_in_network()
        # Exact balance: entered = left + still inside (+ backlog, which
        # finalize() registers as entered).
        assert (
            summary.vehicles_entered
            == summary.vehicles_left + inside + sim.backlog_size()
        )

    def test_transition_serves_nothing(self):
        sim = make_sim(rate=0.5, seed=3)
        for _ in range(120):
            sim.step(1.0, {"J00": 0})
        assert sim.collector.vehicles_left == 0

    def test_capacity_never_exceeded(self):
        sim = make_sim(rate=2.0, seed=4, capacity=15)
        for _ in range(200):
            sim.step(1.0, ALL_GREEN_1)
        for road_id in sim.network.roads:
            assert sim.road_occupancy(road_id) <= 15

    def test_backlog_grows_when_entry_full(self):
        sim = make_sim(rate=3.0, seed=5, capacity=10)
        for _ in range(200):
            sim.step(1.0, {"J00": 0})  # permanent amber
        assert sim.backlog_size() > 0

    def test_green_serves_vehicles(self):
        sim = make_sim(rate=0.5, seed=6)
        for phase in (1, 2, 3, 4):
            for _ in range(100):
                sim.step(1.0, {"J00": phase})
        assert sim.collector.vehicles_left > 0

    def test_determinism(self):
        def run():
            sim = make_sim(rate=0.4, seed=11)
            for k in range(150):
                sim.step(1.0, {"J00": (k // 15) % 4 + 1})
            sim.finalize()
            return sim.collector.summary(150.0)

        a, b = run(), run()
        assert a.average_queuing_time == b.average_queuing_time
        assert a.vehicles_entered == b.vehicles_entered

    def test_observation_structure(self):
        sim = make_sim()
        obs = sim.observations()["J00"]
        assert len(obs.movement_queues) == 12
        assert set(obs.out_queues) == set(
            sim.network.intersections["J00"].out_roads
        )

    def test_exit_roads_read_zero(self):
        sim = make_sim(rate=1.0, seed=7)
        for _ in range(50):
            sim.step(1.0, ALL_GREEN_1)
        obs = sim.observations()["J00"]
        for road_id in obs.out_queues:
            assert obs.out_queues[road_id] == 0  # 1x1 grid: all exits

    def test_sensing_horizon_sees_approaching(self):
        sim = make_sim(rate=1.0, seed=8, sensing_horizon=1e6)
        sim.step(1.0, {"J00": 0})
        sim.step(1.0, {"J00": 0})
        obs = sim.observations()["J00"]
        assert sum(obs.movement_queues.values()) > 0

    def test_startup_lost_time_delays_service(self):
        slow = make_sim(rate=0.5, seed=9, startup_lost=5.0)
        fast = make_sim(rate=0.5, seed=9, startup_lost=0.0)
        # Alternate phases every 8 s: the 5 s start-up eats most green.
        for sim in (slow, fast):
            for k in range(400):
                sim.step(1.0, {"J00": (k // 8) % 4 + 1})
        assert slow.collector.vehicles_left < fast.collector.vehicles_left

    def test_spillback_mode_reports_full_roads(self):
        network = build_grid_network(1, 2, capacity=8)
        demand = {"IN:W@J00": ArrivalSchedule.constant(1.0)}
        sim = MesoSimulator(
            network,
            demand,
            TurningProbabilities.uniform(0.0, 0.0),  # all straight W->E
            seed=1,
        )
        # J00 green for E/W straight (phase 3); J01 permanently amber:
        # the internal road J00->J01 must fill and spill back.
        for _ in range(300):
            sim.step(1.0, {"J00": 3, "J01": 0})
        obs = sim.observations()["J00"]
        assert obs.out_queues["J00->J01"] >= 8  # reads occupancy when full

    def test_invalid_demand_road_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError):
            MesoSimulator(
                network,
                {"OUT:N@J00": ArrivalSchedule.constant(1.0)},
                TURNING,
            )

    def test_step_after_finalize_rejected(self):
        sim = make_sim()
        sim.step(1.0, ALL_GREEN_1)
        sim.finalize()
        with pytest.raises(RuntimeError):
            sim.step(1.0, ALL_GREEN_1)

    def test_queuing_time_accrued_for_waiting_vehicles(self):
        sim = make_sim(rate=0.5, seed=10)
        for _ in range(100):
            sim.step(1.0, {"J00": 0})  # nothing served
        sim.finalize()
        summary = sim.collector.summary(100.0)
        assert summary.average_queuing_time > 0
