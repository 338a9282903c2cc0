"""Tests for the mixed-lane (shared FIFO) mode — Sec. IV-Q4."""

import pytest

from repro.control.factory import make_network_controller
from repro.scenarios.patterns import TURNING
from repro.meso.road_state import RoadState
from repro.meso.simulator import MesoSimulator
from repro.meso.vehicle import MesoVehicle
from repro.model.arrivals import ArrivalSchedule
from repro.model.grid import build_grid_network
from repro.model.roads import Road


def make_sim(lane_policy, rate=0.3, seed=0):
    network = build_grid_network(1, 1)
    demand = {
        entry: ArrivalSchedule.constant(rate)
        for entry in network.entry_roads()
    }
    return MesoSimulator(
        network, demand, TURNING, seed=seed, lane_policy=lane_policy
    )


class TestRoadStateMixed:
    def test_make_mixed(self):
        state = RoadState(Road("r"))
        state.make_mixed()
        assert state.mixed
        assert len(state.mixed_queue) == 0

    def test_cannot_mix_after_dedicated(self):
        state = RoadState(Road("r"))
        state.add_movement_lane("out")
        with pytest.raises(ValueError):
            state.make_mixed()

    def test_cannot_dedicate_after_mixed(self):
        state = RoadState(Road("r"))
        state.make_mixed()
        with pytest.raises(ValueError):
            state.add_movement_lane("out")

    def test_mixed_queue_requires_mixed(self):
        state = RoadState(Road("r"))
        with pytest.raises(ValueError):
            state.mixed_queue

    def test_promotion_goes_to_shared_queue(self):
        state = RoadState(Road("r"))
        state.make_mixed()
        state.enter_transit(MesoVehicle(1, ["r", "a"]), ready_time=0.0)
        state.enter_transit(MesoVehicle(2, ["r", "b"]), ready_time=0.0)
        state.promote_arrivals(0.0)
        assert len(state.mixed_queue) == 2
        assert state.mixed_counts() == {"a": 1, "b": 1}


class TestMixedLaneSimulation:
    def test_conservation_in_mixed_mode(self):
        sim = make_sim("mixed", rate=0.2, seed=3)
        for k in range(300):
            sim.step(1.0, {"J00": (k // 20) % 4 + 1})
        sim.finalize()
        summary = sim.collector.summary(300.0)
        assert (
            summary.vehicles_entered
            == summary.vehicles_left
            + sim.vehicles_in_network()
            + sim.backlog_size()
        )

    def test_hol_blocking_reduces_throughput(self):
        """Same demand and phase schedule: the shared lane serves fewer
        vehicles because blocked heads block everyone behind."""
        results = {}
        for policy in ("dedicated", "mixed"):
            sim = make_sim(policy, rate=0.3, seed=4)
            controller = make_network_controller("util-bp", sim.network)
            for _ in range(600):
                sim.step(1.0, controller.decide(sim.observations()))
            sim.finalize()
            results[policy] = sim.collector.summary(600.0)
        assert (
            results["mixed"].vehicles_left
            < results["dedicated"].vehicles_left
        )
        assert (
            results["mixed"].average_queuing_time
            > results["dedicated"].average_queuing_time
        )

    def test_head_movement_red_blocks_queue(self):
        """Direct HOL check: a red head blocks a green follower."""
        sim = make_sim("mixed", rate=0.0, seed=0)
        state = sim._roads["IN:N@J00"]
        # Head wants to turn right (phase 2); follower goes straight
        # (phase 1).  Apply phase 1: the follower must stay blocked.
        head = MesoVehicle(100, ["IN:N@J00", "OUT:W@J00"])
        follower = MesoVehicle(101, ["IN:N@J00", "OUT:S@J00"])
        for vehicle in (head, follower):
            vehicle.queued_since = 0.0
            sim.collector.vehicle_entered(vehicle.vehicle_id, 0.0)
            state.mixed_queue.append(vehicle)
        for _ in range(30):
            sim.step(1.0, {"J00": 1})  # straight+left green, right red
        assert len(state.mixed_queue) == 2  # nobody served
        sim.step(1.0, {"J00": 0})
        for _ in range(30):
            sim.step(1.0, {"J00": 2})  # right turns green: head leaves
        assert all(v.vehicle_id != 100 for v in state.mixed_queue)

    def test_observation_counts_per_movement(self):
        sim = make_sim("mixed", rate=0.0, seed=0)
        state = sim._roads["IN:N@J00"]
        for vid, out in ((1, "OUT:S@J00"), (2, "OUT:S@J00"), (3, "OUT:E@J00")):
            state.mixed_queue.append(MesoVehicle(vid, ["IN:N@J00", out]))
        obs = sim.observations()["J00"]
        assert obs.movement_queue("IN:N@J00", "OUT:S@J00") == 2
        assert obs.movement_queue("IN:N@J00", "OUT:E@J00") == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_sim("carpool")
