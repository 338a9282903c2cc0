"""Tests for repro.core.util_bp — Algorithm 1, case by case, and
decision for decision against Algorithm 1 composed from the scalar
gain functions of :mod:`repro.core.pressure` (``ReferenceUtilBp``),
including on held-input streams where the controller skips the calls
whose inputs did not change."""

import dataclasses
import random
from typing import List, Tuple

import pytest

from repro.control.base import TRANSITION
from repro.core.config import UtilBpConfig
from repro.core.util_bp import UtilBpController
from repro.model.grid import build_grid_network
from repro.model.intersection import Intersection
from repro.model.phases import Phase
from repro.model.queues import QueueObservation
from tests.conftest import ReferenceUtilBp, make_observation


@pytest.fixture
def controller(intersection):
    return UtilBpController(intersection, UtilBpConfig())


def phase_movements(intersection, index):
    return intersection.phase_by_index(index).movements


class TestInitialDecision:
    def test_first_decision_applies_directly(self, intersection, controller):
        """From the initial (expired-transition) state, c' applies at once."""
        m = phase_movements(intersection, 3)[0]
        obs = make_observation(intersection, movement_queues={m.key: 5})
        assert controller.decide(obs) == 3

    def test_all_empty_picks_lowest_index(self, intersection, controller):
        obs = make_observation(intersection)
        assert controller.decide(obs) == 1


class TestCase1TransitionRunning:
    def test_transition_held_until_expiry(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        # Start phase 1, then create overwhelming demand for phase 3.
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        obs = make_observation(
            intersection, time=1.0, movement_queues={m3.key: 50}
        )
        assert controller.decide(obs) == TRANSITION  # switch -> amber
        for t in (2.0, 3.0, 4.0):
            obs = make_observation(
                intersection, time=t, movement_queues={m3.key: 50}
            )
            decision = controller.decide(obs)
            if t < 5.0:
                assert decision == TRANSITION

    def test_transition_expires_into_selected_phase(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.decide(
            make_observation(
                intersection, time=1.0, movement_queues={m3.key: 50}
            )
        )
        # Amber lasts 4 s (t=1..5); at t=5 the new phase starts.
        obs = make_observation(
            intersection, time=5.0, movement_queues={m3.key: 50}
        )
        assert controller.decide(obs) == 3

    def test_transition_remaining(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.decide(
            make_observation(
                intersection, time=1.0, movement_queues={m3.key: 50}
            )
        )
        assert controller.transition_remaining(2.0) == pytest.approx(3.0)


class TestCase2KeepPhase:
    def test_kept_while_pressure_difference_positive(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Phase 3 has more total demand, but phase 1's best link still
        # has a positive pressure difference -> keep (limits ambers).
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
        )
        assert controller.decide(obs) == 1

    def test_released_when_difference_hits_zero(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Pressure difference now zero (q_move == q_out): keep fails,
        # and phase 3's demand wins the selection -> amber.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
            out_queues={m1.out_road: 2},
        )
        assert controller.decide(obs) == TRANSITION

    def test_keep_margin_extends_phase(self, intersection):
        controller = UtilBpController(
            intersection, UtilBpConfig(keep_margin=5.0)
        )
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Difference is -3: within the margin of 5 -> still kept.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
            out_queues={m1.out_road: 5},
        )
        assert controller.decide(obs) == 1

    def test_not_kept_when_empty(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 1})
        )
        obs = make_observation(
            intersection, time=1.0, movement_queues={m3.key: 4}
        )
        assert controller.decide(obs) == TRANSITION


class TestCase3Selection:
    def test_highest_total_gain_among_servable(self, intersection, controller):
        # Phase 1 has one big queue; phase 3 has two smaller queues whose
        # total (incl. the W* shift per non-empty link) is larger.
        m1 = phase_movements(intersection, 1)[0]
        m3a, m3b = phase_movements(intersection, 3)[:2]
        obs = make_observation(
            intersection,
            movement_queues={m1.key: 30, m3a.key: 10, m3b.key: 10},
        )
        # totals: c1 = 150 + 3*alpha, c3 = 130 + 130 + 2*alpha.
        assert controller.decide(obs) == 3

    def test_full_roads_fall_back_to_gmax(self, intersection, controller):
        # Every outgoing road full: all gains beta except empty lanes
        # (alpha).  Selection falls back to argmax g_max (line 10).
        movements = list(intersection.movements.values())
        obs = make_observation(
            intersection,
            movement_queues={m.key: 10 for m in movements},
            out_queues={road: 120 for road in intersection.out_roads},
        )
        decision = controller.decide(obs)
        assert decision in (1, 2, 3, 4)

    def test_empty_lane_with_space_prefers_servable(self, intersection, controller):
        # Phase 1 empty (alpha); phase 3 has one vehicle -> servable wins.
        m3 = phase_movements(intersection, 3)[0]
        obs = make_observation(intersection, movement_queues={m3.key: 1})
        assert controller.decide(obs) == 3

    def test_reselecting_same_phase_needs_no_amber(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 3})
        )
        # Keep condition fails (difference 0), but phase 1 still wins
        # the selection -> stays green without a transition.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 3},
            out_queues={m1.out_road: 3},
        )
        assert controller.decide(obs) == 1


class TestReset:
    def test_reset_clears_state(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.reset()
        assert controller.current_phase == TRANSITION
        assert controller.transition_remaining(0.0) == 0.0


class TestWorkConservation:
    def test_serves_whenever_something_is_servable(self, intersection, controller):
        """Sec. IV-Q2: a phase with servable vehicles is always selected
        over phases that cannot serve (mini-slot work conservation)."""

        movements = list(intersection.movements.values())
        for servable in movements:
            controller.reset()
            obs = make_observation(
                intersection, movement_queues={servable.key: 1}
            )
            decision = controller.decide(obs)
            assert decision != TRANSITION
            phase = intersection.phase_by_index(decision)
            assert phase.serves(servable.in_road, servable.out_road)


# -- decision-for-decision reference ------------------------------------------


def _with_rates(phase: Phase, rates: Tuple[float, ...]) -> Phase:
    """``phase`` with its movements' service rates replaced, in order."""
    return Phase(
        index=phase.index,
        movements=tuple(
            dataclasses.replace(m, service_rate=rate)
            for m, rate in zip(phase.movements, rates)
        ),
    )


def _phase_plans(base: Intersection):
    """Phase tables exercising the plan: orders, sizes, shared links."""
    c1, c2, c3, c4 = base.phases
    yield "standard", base.phases
    yield "out-of-order", (
        c3,
        c1,
        Phase(index=2, movements=c2.movements + c4.movements),
    )
    # One-movement phases, and a movement shared by two phases.
    yield "ragged-shared", (
        Phase(index=4, movements=c1.movements[:1]),
        Phase(index=1, movements=c1.movements[1:]),
        Phase(index=3, movements=c3.movements),
        Phase(index=2, movements=(c2.movements[0], c1.movements[0])),
    )
    # Links of one phase with different rates: equal gains (including
    # alpha / beta ties) on links of different mu make the first
    # maximal link matter to the Eq. 12 threshold.
    yield "mixed-rates", (
        _with_rates(c1, (0.5, 1.0, 0.3, 1.0)),
        _with_rates(c2, (1.0, 0.5)),
        _with_rates(c3, (0.3, 0.5, 1.0, 0.5)),
        c4,
    )


#: Out-road capacities (N, E, S, W) of each phase plan's intersection:
#: mixed within an intersection, so ``W*`` exceeds some links' own
#: ``W_{i'}``, and ``W*`` 8 or 7 from one intersection to the next.
#: (With ``W*`` below 7, the ``keep_margin=10`` threshold
#: ``(W* - 10) mu`` lies under ``alpha`` at ``mu = 0.3``: an empty lane
#: would keep its phase for ever and the stream would never switch.)
OUT_CAPACITIES = {
    "standard": (4, 6, 8, 6),
    "out-of-order": (6, 4, 7, 4),
    "ragged-shared": (8, 8, 4, 6),
    "mixed-rates": (4, 7, 4, 6),
}


def _intersections() -> List[Tuple[str, Intersection]]:
    """One intersection per phase plan, each with its out-capacities."""
    base = build_grid_network(1, 1, capacity=8, service_rate=0.3)
    plans = _phase_plans(base.intersections["J00"])
    intersections = []
    for name, phases in plans:
        network = build_grid_network(
            1,
            1,
            capacity=8,
            service_rate=0.3,
            capacity_overrides={
                f"OUT:{side}@J00": cap
                for side, cap in zip("NESW", OUT_CAPACITIES[name])
            },
        )
        intersection = network.intersections["J00"]
        intersections.append(
            (name, dataclasses.replace(intersection, phases=phases))
        )
    return intersections


def _out_queue_draw(rng: random.Random, intersection: Intersection):
    """Out-queues with about one road in five full (``q_{i'} = W_{i'}``)."""
    return {
        road_id: road.capacity if rng.random() < 0.2 else rng.randint(0, 3)
        for road_id, road in intersection.out_roads.items()
    }


def _random_observation(
    rng: random.Random, intersection: Intersection, time: float
) -> QueueObservation:
    """A ``Q(k)`` with many empty lanes, full roads, ties and gaps.

    About one movement in ten is absent from ``movement_queues`` (and
    must read 0).
    """
    movement_queues = {}
    for key in intersection.movements:
        draw = rng.random()
        if draw < 0.1:
            continue
        movement_queues[key] = 0 if draw < 0.5 else rng.randint(1, 5)
    out_queues = _out_queue_draw(rng, intersection)
    return QueueObservation(time, movement_queues, out_queues)


CONFIGS = [
    UtilBpConfig(),
    UtilBpConfig(keep_margin=1.5),
    # A margin above W* makes the threshold negative: alpha/beta keeps.
    UtilBpConfig(keep_margin=10.0, transition_duration=2.0),
    UtilBpConfig(alpha=-0.5, beta=-3.0, keep_margin=0.25),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"margin={c.keep_margin}")
@pytest.mark.parametrize(
    "name,intersection",
    [pytest.param(name, inter, id=name) for name, inter in _intersections()],
)
def test_decisions_match_scalar_reference(name, intersection, config):
    """Identical decision sequences over a seeded random stream."""
    rng = random.Random(f"{name}-{config.keep_margin}")
    controller = UtilBpController(intersection, config)
    reference = ReferenceUtilBp(intersection, config)
    decisions = []
    for k in range(1500):
        obs = _random_observation(rng, intersection, float(k))
        decision = controller.decide(obs)
        assert decision == reference.decide(obs), (name, k)
        decisions.append(decision)
    # The stream exercises every case: amber, keeps and switches.
    assert TRANSITION in decisions
    assert len(set(decisions)) == len(intersection.phases) + 1


def test_tie_prefers_running_phase_over_lower_index(intersection):
    """Equal scores keep the running phase even if a lower index ties."""
    controller = UtilBpController(intersection, UtilBpConfig())
    m1 = phase_movements(intersection, 1)[0]
    m3 = phase_movements(intersection, 3)[0]
    controller.decide(make_observation(intersection, movement_queues={m3.key: 5}))
    assert controller.current_phase == 3
    # Both phases' single queued link now has a zero pressure
    # difference: no keep, equal totals, and c3 is running.
    obs = make_observation(
        intersection,
        time=1.0,
        movement_queues={m1.key: 2, m3.key: 2},
        out_queues={m1.out_road: 2, m3.out_road: 2},
    )
    assert controller.decide(obs) == 3


def test_missing_out_road_raises_key_error(intersection):
    movement = phase_movements(intersection, 1)[0]
    obs = make_observation(intersection)
    out_queues = dict(obs.out_queues)
    del out_queues[movement.out_road]
    broken = QueueObservation(0.0, obs.movement_queues, out_queues)
    for controller in (
        UtilBpController(intersection),
        ReferenceUtilBp(intersection, UtilBpConfig()),
    ):
        with pytest.raises(KeyError, match=movement.out_road):
            controller.decide(broken)


def test_absent_movement_reads_zero(intersection):
    """A movement missing from ``movement_queues`` is an empty lane."""
    m3 = phase_movements(intersection, 3)[0]
    obs = QueueObservation(
        0.0, {m3.key: 1}, {road: 0 for road in intersection.out_roads}
    )
    assert UtilBpController(intersection).decide(obs) == 3


def test_plan_is_shared_per_intersection(intersection):
    """Controllers of one intersection share one plan, built once."""
    first = UtilBpController(intersection)
    second = UtilBpController(intersection, UtilBpConfig(keep_margin=2.0))
    assert first._plan is second._plan
    variant = dataclasses.replace(intersection, phases=intersection.phases[:2])
    assert UtilBpController(variant)._plan is not first._plan


# -- re-decision on held inputs -----------------------------------------------


class _HeldInputs:
    """One intersection's ``Q(k)`` stream with inputs held for a while.

    A fresh draw of the movement queues is held for 1-6 slots and, on
    its own clock, so is a fresh draw of the out-queues (1-6 slots):
    inputs repeat for several slots, and sometimes only one of the two
    maps changes.  Queues are often zero, out-roads sometimes full, and
    a movement is now and then absent from ``movement_queues`` (it reads
    0, but the map differs).
    """

    def __init__(self, intersection: Intersection, rng: random.Random):
        self.intersection = intersection
        self.rng = rng
        self.hold = [0, 0]
        self.out_queues = self.movement_queues = None

    def advance(self) -> None:
        """Draw the next slot: redraw every map whose hold ran out."""
        rng, inter = self.rng, self.intersection
        redraw = [left <= 0 for left in self.hold]
        self.hold = [left - 1 for left in self.hold]
        if redraw[1]:
            self.hold[1] = rng.randint(0, 5)
            self.out_queues = _out_queue_draw(rng, inter)
        if redraw[0]:
            self.hold[0] = rng.randint(0, 5)
            self.movement_queues = {}
            for key in inter.movements:
                draw = rng.random()
                if draw >= 0.05:
                    self.movement_queues[key] = 0 if draw < 0.45 else rng.randint(1, 5)

    def inputs(self):
        return (self.movement_queues, self.out_queues)


def _drive_held(config, slots=300, seed=5, reset_at=None, in_place=False):
    """``UtilBpController`` vs ``ReferenceUtilBp`` on held-input streams.

    Every intersection of :func:`_intersections` gets its own stream, its
    own controller and its own reference.  Asserts equal decisions at
    every call, and that ``cells_decided`` grew exactly on the calls the
    re-decision rule names: the first call since construction or
    ``reset()``, a call under amber, a call whose inputs differ from the
    previous call's, or one whose running phase differs from the
    previous call's.  Returns the controllers and event counts showing
    which situations the streams produced.

    ``in_place`` hands every call the same two maps per intersection,
    rewritten in place, instead of fresh ones: the controller must not
    keep a reference to what a later call overwrites.
    """
    rng = random.Random(seed)
    cells = []
    for _, inter in _intersections():
        stream = _HeldInputs(inter, rng)
        cells.append(
            dict(
                stream=stream,
                controller=UtilBpController(inter, config),
                reference=ReferenceUtilBp(inter, config),
                maps=({}, {}),
                last=None,  # the previous call's (running phase, inputs)
            )
        )
    events = dict(skipped=0, expired_while_held=0, switched_then_held=0, amber=0)
    for k in range(slots):
        time = float(k)
        for cell in cells:
            controller, reference = cell["controller"], cell["reference"]
            if k == reset_at:
                controller.reset()
                reference.reset()
                cell["last"] = None
            stream = cell["stream"]
            stream.advance()
            if in_place:
                for kept, drawn in zip(cell["maps"], stream.inputs()):
                    kept.clear()
                    kept.update(drawn)
                maps = cell["maps"]
            else:
                maps = tuple(dict(drawn) for drawn in stream.inputs())
            obs = QueueObservation(time, *maps)
            running = controller.current_phase
            inputs = tuple(dict(drawn) for drawn in stream.inputs())
            last = cell["last"]
            held = last is not None and last[1] == inputs
            redo = not held or running == TRANSITION or running != last[0]

            decided_before = controller.cells_decided
            decision = controller.decide(obs)
            assert decision == reference.decide(obs), (k, stream.intersection)
            assert controller.cells_decided - decided_before == redo, k

            events["skipped"] += not redo
            events["amber"] += decision == TRANSITION
            events["expired_while_held"] += (
                held and running == TRANSITION and decision != TRANSITION
            )
            events["switched_then_held"] += (
                held and last[0] == TRANSITION and running != TRANSITION
            )
            cell["last"] = (running, inputs)
    return [cell["controller"] for cell in cells], events


HELD_CONFIGS = {
    "paper": UtilBpConfig(),
    "keep-margin": UtilBpConfig(keep_margin=1.5),
    "short-amber": UtilBpConfig(keep_margin=0.5, transition_duration=2.0),
    # The reverse of the paper's ordering: beta above alpha.
    "beta-above-alpha": UtilBpConfig(alpha=-3.0, beta=-0.5),
}


class TestReDecision:
    """The controller re-decides only calls whose inputs changed, exactly."""

    @pytest.mark.parametrize("config", HELD_CONFIGS.values(), ids=HELD_CONFIGS)
    def test_held_inputs_decide_as_reference(self, config):
        controllers, events = _drive_held(config)
        # The streams produced every situation the rule must handle.
        assert events["skipped"] > 0
        assert events["amber"] > 0
        assert events["expired_while_held"] > 0
        assert events["switched_then_held"] > 0
        for controller in controllers:
            assert controller.cells_offered == 300
            assert controller.cells_decided < 300

    def test_maps_rewritten_in_place(self):
        """Maps rewritten in place between calls must not alias the memo."""
        _, events = _drive_held(UtilBpConfig(), in_place=True)
        assert events["skipped"] > 0

    def test_reset_mid_stream(self):
        controllers, _ = _drive_held(UtilBpConfig(), reset_at=170)
        for controller in controllers:
            assert controller.cells_offered == 300 - 170

    def test_reset_clears_the_memo_and_counters(self, intersection, controller):
        obs = make_observation(intersection)
        # The first call and the first one running phase 1 re-decide;
        # the third call changes nothing.
        assert [controller.decide(obs) for _ in range(3)] == [1, 1, 1]
        assert (controller.cells_offered, controller.cells_decided) == (3, 2)
        controller.reset()
        assert (controller.cells_offered, controller.cells_decided) == (0, 0)
        assert controller._memo is None
        controller.decide(obs)
        assert controller.cells_decided == 1
