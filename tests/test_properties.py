"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pressure import link_gain, link_gain_original
from repro.micro.krauss import next_speed, safe_speed
from repro.micro.params import KraussParams
from repro.model.arrivals import ArrivalSchedule
from repro.model.grid import build_grid_network
from repro.model.queues import queue_dynamics_step
from repro.model.routing import RouteSampler, TurningProbabilities
from repro.util.rng import derive_seed
from repro.util.series import TimeSeries

import numpy as np
import pytest

from tests.conftest import make_observation

KP = KraussParams(sigma=0.0)


class TestQueueDynamicsProperties:
    @given(
        queue=st.integers(min_value=0, max_value=1000),
        arrivals=st.integers(min_value=0, max_value=100),
        served=st.integers(min_value=0, max_value=100),
    )
    def test_eq2_never_negative(self, queue, arrivals, served):
        if served > queue + arrivals:
            with pytest.raises(ValueError):
                queue_dynamics_step(queue, arrivals, served)
        else:
            assert queue_dynamics_step(queue, arrivals, served) >= 0

    @given(
        queue=st.integers(min_value=0, max_value=1000),
        arrivals=st.integers(min_value=0, max_value=100),
    )
    def test_eq2_conservation(self, queue, arrivals):
        assert queue_dynamics_step(queue, arrivals, 0) == queue + arrivals


class TestGainProperties:
    @pytest.fixture(scope="class")
    def intersection(self):
        return build_grid_network(1, 1).intersections["J00"]

    @given(
        q_move=st.integers(min_value=0, max_value=120),
        q_out=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=60)
    def test_modified_gain_cases_exhaustive(self, intersection, q_move, q_out):
        """Eq. 8's three cases cover every state, mutually exclusively."""
        m = list(intersection.movements.values())[0]
        obs = make_observation(
            intersection,
            movement_queues={m.key: q_move},
            out_queues={m.out_road: q_out},
        )
        gain = link_gain(intersection, m, obs, -1.0, -2.0)
        if q_out >= 120:
            assert gain == -2.0
        elif q_move == 0:
            assert gain == -1.0
        else:
            assert gain == (q_move - q_out + 120.0)
            assert gain > 0  # servable links always outrank the specials

    @given(
        queues=st.lists(
            st.integers(min_value=0, max_value=120), min_size=3, max_size=3
        )
    )
    @settings(max_examples=40)
    def test_original_gain_non_negative(self, intersection, queues):
        in_road = sorted(intersection.in_roads)[0]
        movements = intersection.movements_from(in_road)
        obs = make_observation(
            intersection,
            movement_queues={
                m.key: q for m, q in zip(movements, queues)
            },
        )
        for m in movements:
            assert link_gain_original(m, obs) >= 0.0


class TestKraussProperties:
    @given(
        gap=st.floats(min_value=0.0, max_value=500.0),
        speed=st.floats(min_value=0.0, max_value=40.0),
        leader=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=80)
    def test_safe_speed_non_negative(self, gap, speed, leader):
        assert safe_speed(gap, speed, leader, KP) >= 0.0

    @given(
        speed=st.floats(min_value=0.0, max_value=40.0),
        gap=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=80)
    def test_next_speed_physical_bounds(self, speed, gap):
        v = next_speed(speed, 13.89, gap, 0.0, 1.0, KP, rng=None)
        assert 0.0 <= v <= max(speed + KP.accel, 0.0) + 1e-9
        assert v >= max(0.0, speed - KP.decel) - 1e-9

    @given(speed=st.floats(min_value=0.0, max_value=25.0))
    @settings(max_examples=40)
    def test_stopping_distance_respected(self, speed):
        """Driving at safe speed behind a standing leader never collides.

        The initial speed is bounded by what the comfortable
        deceleration can stop within the gap (v^2 / 2b < 100 m) —
        beyond that no car-following law can avoid the obstacle.
        """
        position, v = 0.0, speed
        gap = 100.0
        for _ in range(200):
            v = next_speed(v, 50.0, gap - position, 0.0, 1.0, KP, rng=None)
            position += v
            assert position <= gap + 1e-6
            if v == 0.0:
                break


class TestScheduleProperties:
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=5
        ),
        start=st.floats(min_value=0.0, max_value=100.0),
        width=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_expected_count_additive(self, rates, start, width):
        pieces = [(float(i * 10), r) for i, r in enumerate(rates)]
        schedule = ArrivalSchedule.piecewise(pieces)
        mid = start + width / 2
        end = start + width
        total = schedule.expected_count(start, end)
        split = schedule.expected_count(start, mid) + schedule.expected_count(
            mid, end
        )
        assert math.isclose(total, split, rel_tol=1e-9, abs_tol=1e-9)

    @given(rate=st.floats(min_value=0.0, max_value=3.0))
    def test_constant_expected_count(self, rate):
        schedule = ArrivalSchedule.constant(rate)
        assert math.isclose(schedule.expected_count(5.0, 15.0), rate * 10.0)


class TestRoutingProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        right=st.floats(min_value=0.0, max_value=0.5),
        left=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_sampled_routes_always_valid(self, seed, right, left):
        network = build_grid_network(2, 3)
        sampler = RouteSampler(
            network,
            TurningProbabilities.uniform(right, left),
            np.random.default_rng(seed),
        )
        for entry in network.entry_roads():
            route = sampler.sample_route(entry)
            network.validate_route(route)


class TestUtilProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.text(min_size=1, max_size=30),
    )
    @settings(max_examples=60)
    def test_derive_seed_stable_and_bounded(self, seed, name):
        value = derive_seed(seed, name)
        assert value == derive_seed(seed, name)
        assert 0 <= value < 2**64

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
        )
    )
    @settings(max_examples=40)
    def test_series_mean_bounded(self, values):
        series = TimeSeries("s")
        for i, v in enumerate(values):
            series.append(float(i), v)
        assert min(values) - 1e-6 <= series.mean() <= max(values) + 1e-6
