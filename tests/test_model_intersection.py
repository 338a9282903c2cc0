"""Tests for repro.model.intersection — the Fig. 1 standard layout."""

import pytest

from repro.model.geometry import Direction, TurnType
from repro.model.grid import build_grid_network
from repro.model.intersection import build_standard_intersection
from repro.model.roads import Road


def make_roads():
    in_roads = {d: Road(f"in_{d.value}") for d in Direction}
    out_roads = {d: Road(f"out_{d.value}") for d in Direction}
    return in_roads, out_roads


class TestStandardIntersection:
    def test_twelve_movements(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        assert len(inter.movements) == 12

    def test_four_phases(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        assert [p.index for p in inter.phases] == [1, 2, 3, 4]

    def test_fig1_phase_table(self):
        """The phase table matches Fig. 1 exactly (compass translated)."""
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        label_sets = {
            phase.index: sorted(m.label() for m in phase.movements)
            for phase in inter.phases
        }
        assert label_sets[1] == ["N:left", "N:straight", "S:left", "S:straight"]
        assert label_sets[2] == ["N:right", "S:right"]
        assert label_sets[3] == ["E:left", "E:straight", "W:left", "W:straight"]
        assert label_sets[4] == ["E:right", "W:right"]

    def test_every_movement_in_exactly_one_phase(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        seen = []
        for phase in inter.phases:
            seen.extend(m.key for m in phase.movements)
        assert sorted(seen) == sorted(inter.movements)

    def test_default_service_rate_is_paper_mu(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        assert all(m.service_rate == 1.0 for m in inter.movements.values())

    def test_service_rate_overrides(self):
        in_roads, out_roads = make_roads()
        overrides = {(Direction.N, TurnType.LEFT): 0.5}
        inter = build_standard_intersection(
            "X", in_roads, out_roads, service_rates=overrides
        )
        left = next(
            m
            for m in inter.movements.values()
            if m.approach is Direction.N and m.turn is TurnType.LEFT
        )
        assert left.service_rate == 0.5

    def test_missing_side_rejected(self):
        in_roads, out_roads = make_roads()
        del in_roads[Direction.N]
        with pytest.raises(ValueError):
            build_standard_intersection("X", in_roads, out_roads)

    def test_lookups(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        assert inter.phase_by_index(2).index == 2
        with pytest.raises(KeyError):
            inter.phase_by_index(9)
        assert len(inter.movements_from("in_N")) == 3
        assert len(inter.movements_into("out_N")) == 3
        assert inter.capacity("in_N") == 120
        with pytest.raises(KeyError):
            inter.capacity("nope")

    def test_w_star_is_largest_out_capacity_eq7(self):
        in_roads, out_roads = make_roads()
        out_roads = {
            d: Road(road.road_id, capacity=cap)
            for (d, road), cap in zip(out_roads.items(), (40, 90, 60, 90))
        }
        in_roads[Direction.N] = Road("in_N", capacity=500)
        inter = build_standard_intersection("X", in_roads, out_roads)
        assert inter.w_star == 90

    def test_movement_lookup(self):
        in_roads, out_roads = make_roads()
        inter = build_standard_intersection("X", in_roads, out_roads)
        movement = inter.movement("in_N", "out_E")
        assert movement.turn is TurnType.LEFT

    def test_grid_intersection_shares_layout(self):
        network = build_grid_network(2, 2)
        for intersection in network.intersections.values():
            assert len(intersection.movements) == 12
            assert len(intersection.phases) == 4
