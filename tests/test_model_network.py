"""Tests for repro.model.network and repro.model.grid."""

import dataclasses
import re

import pytest

from repro.model.geometry import Direction
from repro.model.grid import (
    build_grid_network,
    entry_road_id,
    exit_road_id,
    grid_node_id,
    internal_road_id,
)
from repro.model.network import BOUNDARY


class TestGridBuilder:
    def test_paper_grid_dimensions(self, grid3x3):
        assert len(grid3x3.intersections) == 9
        # 24 internal (12 adjacent pairs x 2 directions) + 12 in + 12 out.
        assert len(grid3x3.roads) == 48
        assert len(grid3x3.entry_roads()) == 12
        assert len(grid3x3.exit_roads()) == 12
        assert len(grid3x3.internal_roads()) == 24

    def test_single_intersection_grid(self, single_network):
        assert len(single_network.intersections) == 1
        assert len(single_network.entry_roads()) == 4
        assert len(single_network.exit_roads()) == 4

    def test_corner_has_two_boundary_sides(self, grid3x3):
        j00 = grid3x3.intersections["J00"]
        entries = [r for r in j00.in_roads if r.startswith("IN:")]
        assert sorted(entries) == ["IN:N@J00", "IN:W@J00"]

    def test_center_has_no_boundary_roads(self, grid3x3):
        j11 = grid3x3.intersections["J11"]
        assert not any(r.startswith("IN:") for r in j11.in_roads)
        assert not any(r.startswith("OUT:") for r in j11.out_roads)

    def test_internal_roads_shared(self, grid3x3):
        road_id = internal_road_id("J00", "J01")
        assert road_id in grid3x3.intersections["J00"].out_roads
        assert road_id in grid3x3.intersections["J01"].in_roads

    def test_capacity_applied(self):
        network = build_grid_network(2, 2, capacity=50)
        road_id = internal_road_id("J00", "J01")
        assert network.roads[road_id].capacity == 50

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_grid_network(0, 3)

    def test_node_id_helpers(self):
        assert grid_node_id(1, 2) == "J12"
        assert entry_road_id(Direction.N, "J01") == "IN:N@J01"
        assert exit_road_id(Direction.S, "J21") == "OUT:S@J21"
        with pytest.raises(ValueError):
            grid_node_id(-1, 0)


class TestNetworkQueries:
    def test_downstream_upstream(self, grid3x3):
        road_id = internal_road_id("J00", "J01")
        assert grid3x3.downstream_intersection(road_id).node_id == "J01"
        assert grid3x3.upstream_intersection(road_id).node_id == "J00"

    def test_boundary_road_endpoints(self, grid3x3):
        assert grid3x3.upstream_intersection("IN:N@J01") is None
        assert grid3x3.downstream_intersection("OUT:N@J01") is None
        assert grid3x3.road_origin["IN:N@J01"] == BOUNDARY

    def test_movements_of_exit_road_empty(self, grid3x3):
        assert grid3x3.movements_of("OUT:N@J01") == []

    def test_movements_of_entry_road(self, grid3x3):
        assert len(grid3x3.movements_of("IN:N@J01")) == 3

    def test_route_next_valid(self, grid3x3):
        nxt = grid3x3.route_next("IN:N@J01", internal_road_id("J01", "J11"))
        assert nxt == internal_road_id("J01", "J11")

    def test_route_next_invalid_movement(self, grid3x3):
        with pytest.raises(ValueError):
            grid3x3.route_next("IN:N@J01", "IN:N@J00")

    def test_route_next_from_exit_road(self, grid3x3):
        with pytest.raises(ValueError):
            grid3x3.route_next("OUT:N@J01", "anything")

    def test_validate_route_straight(self, grid3x3):
        route = ["IN:N@J01", "J01->J11", "J11->J21", "OUT:S@J21"]
        grid3x3.validate_route(route)

    def test_validate_route_must_end_at_exit(self, grid3x3):
        with pytest.raises(ValueError):
            grid3x3.validate_route(["IN:N@J01", "J01->J11"])

    def test_validate_route_unknown_road(self, grid3x3):
        with pytest.raises(ValueError):
            grid3x3.validate_route(["ghost"])

    def test_validate_route_empty(self, grid3x3):
        with pytest.raises(ValueError):
            grid3x3.validate_route([])

    def test_total_capacity(self):
        network = build_grid_network(1, 1, capacity=10, boundary_capacity=10)
        assert network.total_capacity() == 8 * 10


class TestNetworkValidation:
    @pytest.mark.parametrize("side", ["in_roads", "out_roads"])
    def test_intersection_road_must_match_network_road(self, single_network, side):
        """An intersection and its network must record the same road."""
        inter = single_network.intersections["J00"]
        road_id, road = next(iter(getattr(inter, side).items()))
        changed = dataclasses.replace(road, capacity=road.capacity + 1)
        variant = dataclasses.replace(
            inter, **{side: {**getattr(inter, side), road_id: changed}}
        )
        with pytest.raises(ValueError, match=f"{re.escape(repr(road_id))} at J00"):
            dataclasses.replace(single_network, intersections={"J00": variant})
        # The same road on both sides builds.
        roads = {**single_network.roads, road_id: changed}
        dataclasses.replace(
            single_network, intersections={"J00": variant}, roads=roads
        )
