"""Tests for repro.model.routing — turning probabilities and routes."""

import numpy as np
import pytest

from repro.scenarios.patterns import TURNING
from repro.model.geometry import Direction, TurnType
from repro.model.routing import RouteSampler, TurningProbabilities


class TestTurningProbabilities:
    def test_straight_complement(self):
        assert TURNING.straight(Direction.N) == pytest.approx(0.4)
        assert TURNING.straight(Direction.E) == pytest.approx(0.4)
        assert TURNING.straight(Direction.S) == pytest.approx(0.3)
        assert TURNING.straight(Direction.W) == pytest.approx(0.3)

    def test_uniform_constructor(self):
        turning = TurningProbabilities.uniform(0.1, 0.2)
        for side in Direction:
            assert turning.right[side] == 0.1
            assert turning.left[side] == 0.2

    def test_probabilities_over_one_rejected(self):
        with pytest.raises(ValueError):
            TurningProbabilities.uniform(0.6, 0.6)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            TurningProbabilities.uniform(-0.1, 0.2)

    def test_missing_side_rejected(self):
        with pytest.raises(ValueError):
            TurningProbabilities(right={Direction.N: 0.1}, left={Direction.N: 0.1})

    def test_sample_turn_distribution(self):
        rng = np.random.default_rng(0)
        draws = [TURNING.sample_turn(Direction.N, rng) for _ in range(20000)]
        fraction_right = sum(t is TurnType.RIGHT for t in draws) / len(draws)
        fraction_left = sum(t is TurnType.LEFT for t in draws) / len(draws)
        assert fraction_right == pytest.approx(0.4, abs=0.02)
        assert fraction_left == pytest.approx(0.2, abs=0.02)


class TestRouteSampler:
    @pytest.fixture
    def sampler(self, grid3x3):
        return RouteSampler(grid3x3, TURNING, np.random.default_rng(3))

    def test_corridor_straight_north_to_south(self, sampler):
        corridor = sampler.corridor("IN:N@J01")
        assert corridor == ["IN:N@J01", "J01->J11", "J11->J21", "OUT:S@J21"]

    def test_entry_side(self, sampler):
        assert sampler.entry_side("IN:E@J12") is Direction.E
        with pytest.raises(KeyError):
            sampler.entry_side("J00->J01")

    def test_routes_always_valid(self, sampler, grid3x3):
        for _ in range(300):
            for entry in grid3x3.entry_roads():
                route = sampler.sample_route(entry)
                grid3x3.validate_route(route)
                assert route[0] == entry

    def test_straight_vehicles_keep_corridor(self, grid3x3):
        turning = TurningProbabilities.uniform(0.0, 0.0)
        sampler = RouteSampler(grid3x3, turning, np.random.default_rng(0))
        for entry in grid3x3.entry_roads():
            assert sampler.sample_route(entry) == sampler.corridor(entry)

    def test_always_turn_right(self, grid3x3):
        turning = TurningProbabilities.uniform(1.0, 0.0)
        sampler = RouteSampler(grid3x3, turning, np.random.default_rng(0))
        route = sampler.sample_route("IN:N@J01")
        # A right turn from a north entry heads west and exits west.
        assert route[-1].startswith("OUT:W@")

    def test_always_turn_left(self, grid3x3):
        turning = TurningProbabilities.uniform(0.0, 1.0)
        sampler = RouteSampler(grid3x3, turning, np.random.default_rng(0))
        route = sampler.sample_route("IN:N@J01")
        assert route[-1].startswith("OUT:E@")

    def test_turn_intersection_uniformly_random(self, grid3x3):
        turning = TurningProbabilities.uniform(1.0, 0.0)
        sampler = RouteSampler(grid3x3, turning, np.random.default_rng(11))
        lengths = {}
        for _ in range(3000):
            route = sampler.sample_route("IN:N@J01")
            lengths[len(route)] = lengths.get(len(route), 0) + 1
        # Turning at row 0, 1 or 2 gives three distinct route lengths,
        # each picked uniformly (~1/3).
        assert len(lengths) == 3
        for count in lengths.values():
            assert count / 3000 == pytest.approx(1 / 3, abs=0.05)

    def test_unknown_entry_rejected(self, sampler):
        with pytest.raises(KeyError):
            sampler.sample_route("J00->J01")

    def test_single_intersection_routes(self, single_network):
        sampler = RouteSampler(
            single_network, TURNING, np.random.default_rng(0)
        )
        for _ in range(50):
            route = sampler.sample_route("IN:N@J00")
            single_network.validate_route(route)
            assert len(route) == 2  # entry road + exit road
