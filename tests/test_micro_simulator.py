"""Tests for repro.micro.simulator — the SUMO-substitute engine."""

import pytest

from repro.scenarios.patterns import TURNING
from repro.micro.params import KraussParams, MicroParams
from repro.micro.simulator import MicroSimulator
from repro.model.arrivals import ArrivalSchedule
from repro.model.grid import build_grid_network
from repro.model.routing import TurningProbabilities


def make_sim(rows=1, cols=1, rate=0.2, seed=0, capacity=120, **kwargs):
    network = build_grid_network(rows, cols, capacity=capacity)
    demand = {
        entry: ArrivalSchedule.constant(rate)
        for entry in network.entry_roads()
    }
    return MicroSimulator(network, demand, TURNING, seed=seed, **kwargs)


class TestMicroSimulator:
    def test_vehicles_flow_through(self):
        sim = make_sim(rate=0.3, seed=1)
        for k in range(300):
            sim.step(1.0, {"J00": (k // 20) % 4 + 1})
        assert sim.collector.vehicles_left > 0

    def test_conservation(self):
        sim = make_sim(rate=0.3, seed=2)
        for k in range(200):
            sim.step(1.0, {"J00": (k // 15) % 4 + 1})
        sim.finalize()
        summary = sim.collector.summary(200.0)
        assert (
            summary.vehicles_entered
            == summary.vehicles_left
            + sim.vehicles_in_network()
            + sim.backlog_size()
        )

    def test_amber_blocks_stop_line(self):
        sim = make_sim(rate=0.5, seed=3)
        for _ in range(200):
            sim.step(1.0, {"J00": 0})
        assert sim.collector.vehicles_left == 0
        # Queues build up at the stop lines.
        obs = sim.observations()["J00"]
        assert sum(obs.movement_queues.values()) > 0

    def test_determinism(self):
        def run():
            sim = make_sim(rate=0.4, seed=9)
            for k in range(150):
                sim.step(1.0, {"J00": (k // 12) % 4 + 1})
            sim.finalize()
            summary = sim.collector.summary(150.0)
            return (summary.vehicles_entered, summary.average_queuing_time)

        assert run() == run()

    def test_waiting_time_accrues_at_red(self):
        sim = make_sim(rate=0.5, seed=4)
        for _ in range(120):
            sim.step(1.0, {"J00": 0})
        sim.finalize()
        assert sim.collector.summary(120.0).average_queuing_time > 0

    def test_observation_shape(self):
        sim = make_sim()
        obs = sim.observations()["J00"]
        assert len(obs.movement_queues) == 12
        assert set(obs.out_queues) == set(
            sim.network.intersections["J00"].out_roads
        )

    def test_queue_detector_sees_stopped_vehicles(self):
        sim = make_sim(rate=1.0, seed=5)
        for _ in range(60):
            sim.step(1.0, {"J00": 0})
        obs = sim.observations()["J00"]
        total_sensed = sum(obs.movement_queues.values())
        total_halting = sum(
            sim.incoming_queue_total(r)
            for r in sim.network.intersections["J00"].in_roads
        )
        assert total_halting > 0
        assert total_sensed >= total_halting

    def test_spillback_sensor(self):
        # 1x2 grid, tiny roads; J01 always amber -> J00->J01 spills back.
        network = build_grid_network(1, 2, capacity=12, road_length=60.0)
        demand = {"IN:W@J00": ArrivalSchedule.constant(1.0)}
        sim = MicroSimulator(
            network, demand, TurningProbabilities.uniform(0.0, 0.0), seed=1
        )
        for _ in range(300):
            sim.step(1.0, {"J00": 3, "J01": 0})
        obs = sim.observations()["J00"]
        assert obs.out_queues["J00->J01"] > 0

    def test_full_downstream_blocks_crossing(self):
        network = build_grid_network(1, 2, capacity=12, road_length=60.0)
        demand = {"IN:W@J00": ArrivalSchedule.constant(1.0)}
        sim = MicroSimulator(
            network, demand, TurningProbabilities.uniform(0.0, 0.0), seed=1
        )
        for _ in range(400):
            sim.step(1.0, {"J00": 3, "J01": 0})
        # The straight lane of J00->J01 holds at most length/jam_spacing
        # vehicles; the junction must stop feeding it.
        lane_capacity = 60.0 / KraussParams().jam_spacing + 2  # + interior
        straight_lane = sim._lanes["J00->J01"]["OUT:E@J01"]
        assert len(straight_lane) <= lane_capacity

    def test_sub_steps_match_mini_slot(self):
        sim = make_sim(params=MicroParams(dt=0.5))
        sim.step(1.0, {"J00": 1})
        assert sim.time == pytest.approx(1.0)

    def test_step_after_finalize_rejected(self):
        sim = make_sim()
        sim.step(1.0, {"J00": 1})
        sim.finalize()
        with pytest.raises(RuntimeError):
            sim.step(1.0, {"J00": 1})

    def test_invalid_demand_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError):
            MicroSimulator(
                network,
                {"J00->nowhere": ArrivalSchedule.constant(1.0)},
                TURNING,
            )

    def test_utilization_tracks_amber(self):
        sim = make_sim(rate=0.3, seed=6)
        for k in range(100):
            sim.step(1.0, {"J00": 0 if k % 2 == 0 else 1})
        tracker = sim.utilization["J00"]
        assert tracker.amber_share == pytest.approx(0.5, abs=0.01)
