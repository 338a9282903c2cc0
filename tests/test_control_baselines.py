"""Tests for the baseline controllers: fixed-time, original BP, CAP-BP."""

import pytest

from repro.control.base import TRANSITION
from repro.control.cap_bp import CapBpController, cap_link_weight
from repro.control.fixed_time import FixedTimeController
from repro.control.original_bp import OriginalBpController
from tests.conftest import make_observation


class TestFixedTime:
    def test_round_robin_order(self, intersection):
        ctrl = FixedTimeController(intersection, period=2, transition_duration=1.0)
        decisions = []
        for t in range(16):
            decisions.append(
                ctrl.decide(make_observation(intersection, time=float(t)))
            )
        greens = [d for d in decisions if d != TRANSITION]
        # Phases must appear in cyclic order 1, 2, 3, 4, 1, ...
        order = []
        for g in greens:
            if not order or order[-1] != g:
                order.append(g)
        assert order[:4] == [1, 2, 3, 4]

    def test_ignores_queues(self, intersection):
        ctrl = FixedTimeController(intersection, period=2, transition_duration=1.0)
        m3 = intersection.phase_by_index(3).movements[0]
        obs = make_observation(intersection, movement_queues={m3.key: 99})
        assert ctrl.decide(obs) == 1  # starts with phase 1 regardless


class TestOriginalBp:
    def test_picks_highest_total_gain(self, intersection):
        ctrl = OriginalBpController(intersection, period=5)
        m3 = intersection.phase_by_index(3).movements[0]
        obs = make_observation(intersection, movement_queues={m3.key: 10})
        assert ctrl.decide(obs) == 3

    def test_total_queue_pressure_is_oblivious_to_movement(self, intersection):
        """The Eq. 5 pathology: queue on the *right* lane inflates the
        gain of the straight/left phase too (pressure from q_i, not
        q_i^{i'})."""
        ctrl = OriginalBpController(intersection, period=5)
        phase_2 = intersection.phase_by_index(2)
        right = phase_2.movements[0]  # N:right queue
        obs = make_observation(intersection, movement_queues={right.key: 12})
        # Phase 1 activates two N links whose road total is 12 each ->
        # phase 1 gain (24) exceeds phase 2 gain (12 + partner road).
        assert ctrl.decide(obs) == 1

    def test_all_zero_keeps_running_phase(self, intersection):
        ctrl = OriginalBpController(intersection, period=2)
        m3 = intersection.phase_by_index(3).movements[0]
        ctrl.decide(make_observation(intersection, movement_queues={m3.key: 5}))
        obs = make_observation(intersection, time=2.0)  # everything empty
        assert ctrl.decide(obs) == 3

    def test_all_zero_initial_picks_first_phase(self, intersection):
        ctrl = OriginalBpController(intersection, period=5)
        assert ctrl.decide(make_observation(intersection)) == 1


class TestCapLinkWeight:
    def test_normalized_difference(self, intersection):
        m = intersection.phase_by_index(1).movements[0]
        obs = make_observation(
            intersection,
            movement_queues={m.key: 12},
            out_queues={m.out_road: 60},
        )
        weight = cap_link_weight(m, obs, in_capacity=120, out_capacity=120)
        assert weight == pytest.approx(12 / 120 - 60 / 120)

    def test_full_downstream_zero(self, intersection):
        m = intersection.phase_by_index(1).movements[0]
        obs = make_observation(
            intersection,
            movement_queues={m.key: 50},
            out_queues={m.out_road: 120},
        )
        assert cap_link_weight(m, obs, in_capacity=120, out_capacity=120) == 0.0

    def test_bad_capacity_rejected(self, intersection):
        m = intersection.phase_by_index(1).movements[0]
        obs = make_observation(intersection)
        with pytest.raises(ValueError):
            cap_link_weight(m, obs, in_capacity=0, out_capacity=120)


class TestCapBp:
    def test_picks_highest_pressure_phase(self, intersection):
        ctrl = CapBpController(intersection, period=5)
        m3 = intersection.phase_by_index(3).movements[0]
        obs = make_observation(intersection, movement_queues={m3.key: 10})
        assert ctrl.decide(obs) == 3

    def test_capacity_awareness_diverts(self, intersection):
        """A huge queue into a full road must not win the slot."""
        ctrl = CapBpController(intersection, period=5)
        m1 = intersection.phase_by_index(1).movements[0]
        m3 = intersection.phase_by_index(3).movements[0]
        obs = make_observation(
            intersection,
            movement_queues={m1.key: 100, m3.key: 2},
            out_queues={m1.out_road: 120},
        )
        assert ctrl.decide(obs) == 3

    def test_work_conservation_prefers_servable(self, intersection):
        """Slot-level work conservation: pick a phase that can serve.

        Phase 1's only queued movements face full roads (weight capped
        to zero by capacity awareness); phase 4 holds a single servable
        vehicle and must win the slot.
        """
        ctrl = CapBpController(intersection, period=5)
        phase_1 = intersection.phase_by_index(1)
        blocked = [
            m for m in phase_1.movements if m.label().startswith("N:")
        ]
        m4 = next(
            m
            for m in intersection.phase_by_index(4).movements
            if m.out_road not in {b.out_road for b in blocked}
        )
        obs = make_observation(
            intersection,
            movement_queues={
                **{m.key: 50 for m in blocked},
                m4.key: 1,
            },
            out_queues={m.out_road: 120 for m in blocked},
        )
        assert ctrl.decide(obs) == 4

    def test_all_empty_keeps_running_phase(self, intersection):
        ctrl = CapBpController(intersection, period=2)
        m3 = intersection.phase_by_index(3).movements[0]
        ctrl.decide(make_observation(intersection, movement_queues={m3.key: 5}))
        assert ctrl.decide(make_observation(intersection, time=2.0)) == 3
