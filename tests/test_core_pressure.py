"""Tests for repro.core.pressure — Eqs. 4-12 and their array twins."""

import numpy as np
import pytest

from repro.core.pressure import (
    keep_threshold,
    link_gain,
    link_gain_array,
    link_gain_original,
    link_gain_original_array,
    max_link_gain,
    phase_gain,
    phase_gain_array,
    pressure,
)
from repro.model.grid import build_grid_network
from repro.model.phases import Phase
from tests.conftest import make_observation

ALPHA, BETA = -1.0, -2.0


def movement_of(intersection, index=0):
    in_road = sorted(intersection.in_roads)[0]
    return intersection.movements_from(in_road)[index]


class TestPressure:
    def test_identity_eq4(self):
        assert pressure(7) == 7.0

    def test_zero(self):
        assert pressure(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pressure(-1)


class TestOriginalGain:
    def test_uses_total_incoming_queue(self, intersection):
        m = movement_of(intersection)
        siblings = intersection.movements_from(m.in_road)
        obs = make_observation(
            intersection,
            movement_queues={s.key: 4 for s in siblings},
        )
        # b_i = 12 (total over three lanes), b_i' = 0 -> gain 12 * mu.
        assert link_gain_original(m, obs) == 12.0

    def test_clamped_at_zero_eq5(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(intersection, out_queues={m.out_road: 50})
        assert link_gain_original(m, obs) == 0.0

    def test_scales_with_service_rate(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(intersection, movement_queues={m.key: 6})
        base = link_gain_original(m, obs)
        faster = type(m)(
            in_road=m.in_road,
            out_road=m.out_road,
            approach=m.approach,
            turn=m.turn,
            service_rate=2.0,
        )
        assert link_gain_original(faster, obs) == 2 * base


class TestModifiedGain:
    def test_general_case_eq6(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 10},
            out_queues={m.out_road: 3},
        )
        # (b_move - b_out + W*) mu = (10 - 3 + 120) * 1.
        assert link_gain(intersection, m, obs, ALPHA, BETA) == 127.0

    def test_negative_difference_allowed(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 1},
            out_queues={m.out_road: 50},
        )
        assert link_gain(intersection, m, obs, ALPHA, BETA) == 1 - 50 + 120

    def test_empty_movement_alpha(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(intersection)
        assert link_gain(intersection, m, obs, ALPHA, BETA) == ALPHA

    def test_full_outgoing_beta(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 10},
            out_queues={m.out_road: 120},
        )
        assert link_gain(intersection, m, obs, ALPHA, BETA) == BETA

    def test_full_beats_empty_check_order(self, intersection):
        # Full outgoing road dominates even when the incoming lane is empty.
        m = movement_of(intersection)
        obs = make_observation(intersection, out_queues={m.out_road: 120})
        assert link_gain(intersection, m, obs, ALPHA, BETA) == BETA

    def test_general_case_always_above_specials(self, intersection):
        # Servable link: gain >= 0 > alpha > beta (with paper parameters).
        m = movement_of(intersection)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 1},
            out_queues={m.out_road: 119},
        )
        assert link_gain(intersection, m, obs, ALPHA, BETA) >= 0 > ALPHA > BETA

    def test_non_negative_alpha_rejected(self, intersection):
        m = movement_of(intersection)
        obs = make_observation(intersection)
        with pytest.raises(ValueError):
            link_gain(intersection, m, obs, 0.0, BETA)
        with pytest.raises(ValueError):
            link_gain(intersection, m, obs, ALPHA, 0.5)


class TestPhaseGains:
    def test_phase_gain_is_sum_eq10(self, intersection):
        phase = intersection.phase_by_index(1)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 5 for m in phase.movements},
        )
        total = phase_gain(intersection, phase, obs, ALPHA, BETA)
        parts = sum(link_gain(intersection, m, obs, ALPHA, BETA) for m in phase.movements)
        assert total == parts == 4 * 125.0

    def test_phase_gain_adds_left_to_right(self):
        """Eq. 10 adds in declaration order on every Python.

        From Python 3.12 on, ``sum()`` of floats is compensated and
        gives 21.3 here; the batch kernel adds left to right, and the
        serial sum must round the same way.
        """
        intersection = build_grid_network(1, 1, capacity=20, service_rate=0.3)
        intersection = intersection.intersections["J00"]
        movements = intersection.phase_by_index(1).movements[:3]
        phase = Phase(index=1, movements=movements)
        obs = make_observation(
            intersection,
            movement_queues={m.key: q for m, q in zip(movements, (1, 2, 8))},
        )
        gains = [link_gain(intersection, m, obs, ALPHA, BETA) for m in movements]
        assert gains == [6.3, 6.6, 8.4]
        assert phase_gain(intersection, phase, obs, ALPHA, BETA) == 21.299999999999997

    def test_max_link_gain_eq11(self, intersection):
        phase = intersection.phase_by_index(1)
        best = phase.movements[2]
        obs = make_observation(intersection, movement_queues={best.key: 9})
        g_max, l_max = max_link_gain(intersection, phase, obs, ALPHA, BETA)
        assert l_max.key == best.key
        assert g_max == 129.0

    def test_max_link_gain_all_empty(self, intersection):
        phase = intersection.phase_by_index(1)
        obs = make_observation(intersection)
        g_max, _ = max_link_gain(intersection, phase, obs, ALPHA, BETA)
        assert g_max == ALPHA

    def test_tie_break_deterministic(self, intersection):
        phase = intersection.phase_by_index(1)
        obs = make_observation(
            intersection,
            movement_queues={m.key: 5 for m in phase.movements},
        )
        _, l_max = max_link_gain(intersection, phase, obs, ALPHA, BETA)
        assert l_max.key == phase.movements[0].key


class TestKeepThreshold:
    def test_eq12(self, intersection):
        m = movement_of(intersection)
        assert keep_threshold(intersection, m) == 120.0

    def test_keep_iff_positive_pressure_difference(self, intersection):
        """g > g*  <=>  b_move - b_out > 0 in the general case."""
        m = movement_of(intersection)
        for q_move, q_out in [(5, 3), (3, 5), (4, 4)]:
            obs = make_observation(
                intersection,
                movement_queues={m.key: q_move},
                out_queues={m.out_road: q_out},
            )
            gain = link_gain(intersection, m, obs, ALPHA, BETA)
            assert (gain > keep_threshold(intersection, m)) == (q_move > q_out)


class TestArrayKernels:
    """The ``*_array`` kernels against their scalar twins, cell by cell.

    Randomized observations sweep the general case together with both
    special branches (empty movements -> alpha, spillback-full outgoing
    roads -> beta); the ``empty`` and ``full`` modes pin the all-empty
    and all-full extremes where only a special branch can fire.
    Equality is exact (``==``), not approximate — the array kernels
    promise the scalar functions' float results bit for bit.
    """

    BATCH = 16
    SEEDS = {"mixed": 1, "empty": 2, "full": 3}

    @pytest.fixture
    def movements(self, intersection):
        return [
            m
            for in_road in sorted(intersection.in_roads)
            for m in intersection.movements_from(in_road)
        ]

    def _observations(self, intersection, movements, mode):
        rng = np.random.default_rng(self.SEEDS[mode])
        batch = []
        for _ in range(self.BATCH):
            movement_queues = {}
            out_queues = {}
            if mode != "empty":
                movement_queues = {
                    m.key: int(rng.integers(0, 8)) for m in movements
                }
            for road_id, road in intersection.out_roads.items():
                if mode == "full":
                    out_queues[road_id] = road.capacity
                elif mode == "mixed":
                    # capacity included: the beta branch must fire
                    # inside otherwise-general batches, not only in the
                    # all-full extreme.
                    out_queues[road_id] = int(
                        rng.choice(
                            [0, 1, 5, road.capacity - 1, road.capacity]
                        )
                    )
            batch.append(
                make_observation(
                    intersection,
                    movement_queues=movement_queues,
                    out_queues=out_queues,
                )
            )
        return batch

    def _arrays(self, intersection, movements, batch):
        queues = np.array(
            [
                [obs.movement_queue(m.in_road, m.out_road) for m in movements]
                for obs in batch
            ]
        )
        out_queues = np.array(
            [[obs.out_queue(m.out_road) for m in movements] for obs in batch]
        )
        capacities = np.array(
            [float(intersection.out_roads[m.out_road].capacity) for m in movements]
        )
        rates = np.array([m.service_rate for m in movements])
        w_star = np.full(len(movements), float(intersection.w_star))
        incoming = np.array(
            [
                [obs.incoming_total(m.in_road) for m in movements]
                for obs in batch
            ]
        )
        return queues, out_queues, capacities, rates, w_star, incoming

    @pytest.mark.parametrize("mode", sorted(SEEDS))
    def test_link_gain_matches_scalar(self, intersection, movements, mode):
        batch = self._observations(intersection, movements, mode)
        queues, out_queues, capacities, rates, w_star, _ = self._arrays(
            intersection, movements, batch
        )
        gains = link_gain_array(
            queues, out_queues, capacities, w_star, rates, ALPHA, BETA
        )
        assert gains.shape == (self.BATCH, len(movements))
        for b, obs in enumerate(batch):
            for j, m in enumerate(movements):
                assert gains[b, j] == link_gain(intersection, m, obs, ALPHA, BETA), (
                    mode,
                    b,
                    m.key,
                )

    @pytest.mark.parametrize("mode", sorted(SEEDS))
    def test_original_gain_matches_scalar(self, intersection, movements, mode):
        batch = self._observations(intersection, movements, mode)
        _, out_queues, _, rates, _, incoming = self._arrays(
            intersection, movements, batch
        )
        gains = link_gain_original_array(incoming, out_queues, rates)
        for b, obs in enumerate(batch):
            for j, m in enumerate(movements):
                assert gains[b, j] == link_gain_original(m, obs), (
                    mode,
                    b,
                    m.key,
                )

    @pytest.mark.parametrize("mode", sorted(SEEDS))
    def test_phase_gain_matches_scalar(self, intersection, movements, mode):
        batch = self._observations(intersection, movements, mode)
        queues, out_queues, capacities, rates, w_star, _ = self._arrays(
            intersection, movements, batch
        )
        gains = link_gain_array(
            queues, out_queues, capacities, w_star, rates, ALPHA, BETA
        )
        column = {m.key: j for j, m in enumerate(movements)}
        phases = list(intersection.phases)
        width = max(len(phase.movements) for phase in phases)
        members = np.zeros((len(phases), width), dtype=np.int64)
        valid = np.zeros((len(phases), width), dtype=bool)
        for p, phase in enumerate(phases):
            for j, m in enumerate(phase.movements):
                members[p, j] = column[m.key]
                valid[p, j] = True
        totals = phase_gain_array(gains[..., members], valid)
        assert totals.shape == (self.BATCH, len(phases))
        for b, obs in enumerate(batch):
            for p, phase in enumerate(phases):
                assert totals[b, p] == phase_gain(intersection, phase, obs, ALPHA, BETA), (
                    mode,
                    b,
                    phase.index,
                )

    def test_link_gain_into_a_buffer(self, intersection, movements):
        batch = self._observations(intersection, movements, "mixed")
        queues, out_queues, capacities, rates, w_star, _ = self._arrays(
            intersection, movements, batch
        )
        expected = link_gain_array(
            queues, out_queues, capacities, w_star, rates, ALPHA, BETA
        )
        rows = np.full((self.BATCH, len(movements) + 1), np.nan)
        out = rows[:, 1:]
        gains = link_gain_array(
            queues, out_queues, capacities, w_star, rates, ALPHA, BETA,
            out=out,
        )
        assert gains is out
        assert np.array_equal(out, expected)
        assert np.isnan(rows[:, 0]).all()

    def test_non_negative_alpha_beta_rejected(self, movements):
        shape = (1, len(movements))
        zeros = np.zeros(shape)
        with pytest.raises(ValueError):
            link_gain_array(
                zeros, zeros, zeros + 10, zeros + 10, zeros + 1, 0.0, BETA
            )
        with pytest.raises(ValueError):
            link_gain_array(
                zeros, zeros, zeros + 10, zeros + 10, zeros + 1, ALPHA, 0.5
            )
