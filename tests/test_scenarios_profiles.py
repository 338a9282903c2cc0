"""Demand-profile shapes, the incident network surgery, and the grid
override plumbing behind the scenario library."""

import pytest

from repro.model.geometry import Direction
from repro.model.grid import build_grid_network, grid_node_id, internal_road_id
from repro.scenarios import build_named_scenario
from repro.scenarios.library import incident_road
from repro.scenarios.profiles import (
    BASE_RATE,
    asymmetric_turning,
    steady_profile,
    surge_profile,
    tidal_profile,
)


class TestSteadyProfile:
    def test_uniform_and_load_scaled(self):
        profile = steady_profile(load=1.5)
        for side in Direction:
            assert profile[side].rate_at(0.0) == pytest.approx(1.5 * BASE_RATE)
            assert profile[side].rate_at(10_000.0) == profile[side].rate_at(0.0)

    def test_rejects_non_positive_load(self):
        with pytest.raises(ValueError):
            steady_profile(load=0.0)


class TestTidalProfile:
    def test_peak_reverses_at_reversal_time(self):
        profile = tidal_profile(reversal_time=600.0)
        before, after = 0.0, 600.0
        # N/E peak first, S/W peak after the tide turns.
        assert profile[Direction.N].rate_at(before) > profile[
            Direction.S
        ].rate_at(before)
        assert profile[Direction.S].rate_at(after) > profile[
            Direction.N
        ].rate_at(after)
        # The tide conserves the heavy/light split, just mirrored.
        assert profile[Direction.N].rate_at(before) == pytest.approx(
            profile[Direction.S].rate_at(after)
        )


class TestSurgeProfile:
    def test_step_change_window(self):
        profile = surge_profile(
            surge_start=300.0, surge_duration=200.0, surge_factor=3.0
        )
        north = profile[Direction.N]
        assert north.rate_at(0.0) == pytest.approx(BASE_RATE)
        assert north.rate_at(300.0) == pytest.approx(3.0 * BASE_RATE)
        assert north.rate_at(499.0) == pytest.approx(3.0 * BASE_RATE)
        assert north.rate_at(500.0) == pytest.approx(BASE_RATE)
        # Non-surge sides stay flat through the window.
        south = profile[Direction.S]
        assert south.rate_at(400.0) == pytest.approx(BASE_RATE)


class TestAsymmetricTurning:
    def test_heavy_left_side(self):
        turning = asymmetric_turning(
            heavy_side=Direction.W, heavy_left=0.6
        )
        assert turning.left[Direction.W] == pytest.approx(0.6)
        assert turning.straight(Direction.W) == pytest.approx(0.25)
        assert turning.straight(Direction.N) == pytest.approx(0.7)


class TestIncidentScenario:
    def test_capacity_drop_applied(self):
        scenario = build_named_scenario("incident-3x3")
        degraded = incident_road(3, 3)
        roads = scenario.network.roads
        assert roads[degraded].capacity < 120
        healthy = [
            r for r in roads
            if r != degraded and not r.startswith(("IN:", "OUT:"))
        ]
        assert all(roads[r].capacity == 120 for r in healthy)

    def test_service_rate_drop_at_central_junction(self):
        scenario = build_named_scenario("incident-3x3")
        center = scenario.network.intersections[grid_node_id(1, 1)]
        corner = scenario.network.intersections[grid_node_id(0, 0)]
        assert all(
            m.service_rate == pytest.approx(0.5)
            for m in center.movements.values()
        )
        assert all(
            m.service_rate == pytest.approx(1.0)
            for m in corner.movements.values()
        )

    def test_incident_road_fallbacks(self):
        assert incident_road(3, 3) == "J10->J11"
        assert incident_road(1, 3) == "J00->J01"
        assert incident_road(3, 1) == "J00->J10"
        assert incident_road(1, 1) == "IN:W@J00"


class TestGridOverrides:
    def test_capacity_override_applied(self):
        network = build_grid_network(
            2, 2, capacity_overrides={"J00->J01": 30}
        )
        assert network.roads["J00->J01"].capacity == 30
        assert network.roads["J01->J00"].capacity == 120

    def test_unknown_capacity_override_rejected(self):
        with pytest.raises(ValueError, match="does not build"):
            build_grid_network(2, 2, capacity_overrides={"J09->J10": 30})

    def test_unknown_service_rate_override_rejected(self):
        with pytest.raises(ValueError, match="unknown intersections"):
            build_grid_network(2, 2, node_service_rates={"J77": 0.5})


class TestGridIds:
    """Grid ids never alias two positions; every grid smaller than 12x11
    keeps its ``J{row}{col}`` ids."""

    @pytest.mark.parametrize(
        "rows, cols", [(10, 10), (3, 11), (11, 3), (11, 11), (11, 12), (12, 10)]
    )
    def test_plain_ids_below_twelve_by_eleven(self, rows, cols):
        network = build_grid_network(rows, cols)
        assert len(network.intersections) == rows * cols
        assert f"J{rows - 1}{cols - 1}" in network.intersections
        assert grid_node_id(rows - 1, cols - 1, (rows, cols)) == (
            f"J{rows - 1}{cols - 1}"
        )
        assert not any("_" in node for node in network.intersections)

    @pytest.mark.parametrize("rows, cols", [(12, 11), (12, 12)])
    def test_delimited_from_twelve_by_eleven(self, rows, cols):
        network = build_grid_network(rows, cols)
        assert len(network.intersections) == rows * cols
        # Both would be J110 undelimited.
        assert {"J1_10", "J11_0"} <= set(network.intersections)
        assert internal_road_id("J1_9", "J1_10") in network.roads
        assert grid_node_id(11, 0, (rows, cols)) == "J11_0"

    def test_named_12x12_scenario_builds_every_position(self):
        scenario = build_named_scenario("steady-12x12")
        assert len(scenario.network.intersections) == 144
        assert len(scenario.demand) == 4 * 12

    def test_incident_on_a_delimited_grid(self):
        scenario = build_named_scenario("incident-12x12")
        degraded = internal_road_id("J6_5", "J6_6")
        assert incident_road(12, 12) == degraded
        assert scenario.network.roads[degraded].capacity == 48
        assert scenario.network.intersections["J6_6"].movements[
            (degraded, internal_road_id("J6_6", "J6_7"))
        ].service_rate == 0.5
