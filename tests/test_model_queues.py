"""Tests for repro.model.queues — observations and Eq. 2 dynamics."""

import pytest

from repro.model.queues import QueueObservation, queue_dynamics_step
from tests.conftest import make_observation


class TestQueueObservation:
    def test_incoming_total_eq1(self, intersection):
        in_road = intersection.approach_of[list(intersection.approach_of)[0]]
        movements = intersection.movements_from(in_road)
        queues = {m.key: i + 1 for i, m in enumerate(movements)}
        obs = make_observation(intersection, movement_queues=queues)
        assert obs.incoming_total(in_road) == sum(queues.values())

    def test_movement_queue_default_zero(self, intersection):
        obs = make_observation(intersection)
        assert obs.movement_queue("ghost", "road") == 0

    def test_unknown_out_road_raises(self, intersection):
        obs = make_observation(intersection)
        with pytest.raises(KeyError):
            obs.out_queue("ghost")

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            QueueObservation(
                time=0.0,
                movement_queues={("a", "b"): -1},
                out_queues={},
            )

    def test_negative_out_queue_rejected(self):
        with pytest.raises(ValueError, match="on road 'r'"):
            QueueObservation(time=0.0, movement_queues={}, out_queues={"r": -1})


class TestQueueDynamics:
    def test_eq2(self):
        assert queue_dynamics_step(queue=5, arrivals=3, served=2) == 6

    def test_drain_to_zero(self):
        assert queue_dynamics_step(queue=2, arrivals=0, served=2) == 0

    def test_overserving_rejected(self):
        with pytest.raises(ValueError):
            queue_dynamics_step(queue=1, arrivals=0, served=2)

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ValueError):
            queue_dynamics_step(queue=1, arrivals=-1, served=0)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            queue_dynamics_step(queue=1, arrivals=0, served=-1)
