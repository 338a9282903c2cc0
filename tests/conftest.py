"""Shared fixtures: a single-intersection network, observation builders,
the mixed-phase-plan scenario variant of the parity suites, an engine
whose build always fails, and the scalar UTIL-BP reference that the
serial controller and the batch kernel are both checked against."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings

from repro.control.base import TRANSITION, IntersectionController
from repro.core.config import UtilBpConfig
from repro.core.engine import ENGINES, register_engine
from repro.core.pressure import keep_threshold, max_link_gain, phase_gain
from repro.model.grid import build_grid_network
from repro.model.intersection import Intersection
from repro.model.phases import Phase
from repro.model.queues import QueueObservation
from repro.scenarios import build_named_scenario

#: A deeper hypothesis run for the nightly workflow
#: (``--hypothesis-profile=nightly``); tier-1 uses hypothesis' default.
settings.register_profile("nightly", max_examples=1000)

#: Suffix selecting :func:`build_parity_scenario`'s mixed-phase variant.
MIXED_PHASES = "+mixed-phases"


#: The engine name :func:`failing_engine` registers.
FAILING_ENGINE = "test-failing-build"


def _build_failing_engine(scenario):
    """An engine builder that always raises: a fault only a run can hit."""
    raise RuntimeError(f"{FAILING_ENGINE}: engine build fails on purpose")


if multiprocessing.parent_process() is not None:
    # A spawn worker starts with a fresh registry and imports this module
    # (the builder's provider_module) to get the engine back.
    register_engine(FAILING_ENGINE, _build_failing_engine)


@pytest.fixture
def failing_engine():
    """Register :data:`FAILING_ENGINE` for one test, then unregister it.

    Specs on it pass every construction-time check; each cell fails
    inside the run, in whichever process executes it.
    """
    register_engine(FAILING_ENGINE, _build_failing_engine)
    yield FAILING_ENGINE
    ENGINES.builders.pop(FAILING_ENGINE, None)


@pytest.fixture
def single_network():
    """A 1x1 grid: one Fig.-1 intersection, all roads boundary roads."""
    return build_grid_network(1, 1)


@pytest.fixture
def intersection(single_network):
    """The single intersection of the 1x1 grid."""
    return single_network.intersections["J00"]


@pytest.fixture
def grid3x3():
    """The paper's 3x3 evaluation network."""
    return build_grid_network(3, 3)


def make_observation(
    intersection,
    time: float = 0.0,
    movement_queues: Optional[Dict[Tuple[str, str], int]] = None,
    out_queues: Optional[Dict[str, int]] = None,
) -> QueueObservation:
    """Build a ``Q(k)`` for an intersection with sparse overrides.

    Unspecified movement queues default to 0; unspecified outgoing
    queues default to 0.
    """
    queues = {key: 0 for key in intersection.movements}
    if movement_queues:
        for key, value in movement_queues.items():
            if key not in queues:
                raise KeyError(f"unknown movement {key}")
            queues[key] = value
    outs = {road_id: 0 for road_id in intersection.out_roads}
    if out_queues:
        for road_id, value in out_queues.items():
            if road_id not in outs:
                raise KeyError(f"unknown outgoing road {road_id}")
            outs[road_id] = value
    return QueueObservation(time=time, movement_queues=queues, out_queues=outs)


@pytest.fixture
def observe():
    """The :func:`make_observation` helper as a fixture."""
    return make_observation


def build_parity_scenario(name: str, seed: int, **overrides):
    """A catalog scenario, or its mixed-phase-plan variant.

    ``"<entry>+mixed-phases"`` builds ``<entry>`` and then gives its
    intersections three different phase plans, cycling in node order:
    the standard four phases; three phases declared out of index order
    (``c3``, ``c1``, then both right-turn phases merged into ``c2``);
    and two phases (``c1``, ``c3`` — right turns never get green).
    Batched controllers must handle ragged phase tables and phase
    indices that are not declaration positions.  ``overrides`` go to
    the catalog entry's builder (e.g. ``capacity=12``).

    Networks are read-only and shared, so the variant is a new network
    of new intersections; the catalog's network is left untouched.
    """
    base, variant, _ = name.partition(MIXED_PHASES)
    scenario = build_named_scenario(base, seed=seed, **overrides)
    if not variant:
        return scenario
    intersections = {}
    for n, (node_id, intersection) in enumerate(
        scenario.network.intersections.items()
    ):
        c1, c2, c3, c4 = intersection.phases
        phases = intersection.phases
        if n % 3 == 1:
            rights = Phase(index=2, movements=c2.movements + c4.movements)
            phases = (c3, c1, rights)
        elif n % 3 == 2:
            phases = (c1, c3)
        intersections[node_id] = dataclasses.replace(intersection, phases=phases)
    network = dataclasses.replace(scenario.network, intersections=intersections)
    return dataclasses.replace(scenario, network=network)


class ReferenceUtilBp(IntersectionController):
    """Algorithm 1 composed from :mod:`repro.core.pressure`'s scalars.

    Recomputes Eq. 8 inside every Eq. 10/11/12 evaluation, the way the
    paper states the equations, and decides from scratch on every call;
    :class:`~repro.core.util_bp.UtilBpController` must decide exactly as
    this does.
    """

    def __init__(self, intersection: Intersection, config: UtilBpConfig):
        super().__init__(intersection)
        self.config = config
        self._transition_until = -math.inf

    def reset(self) -> None:
        super().reset()
        self._transition_until = -math.inf

    def decide(self, obs: QueueObservation) -> int:
        t_k = obs.time
        previous = self._current
        if previous == TRANSITION and t_k < self._transition_until:
            return self._record(TRANSITION)
        if previous != TRANSITION:
            current_phase = self.intersection.phase_by_index(previous)
            g_max, l_max = max_link_gain(
                self.intersection,
                current_phase,
                obs,
                self.config.alpha,
                self.config.beta,
            )
            threshold = keep_threshold(self.intersection, l_max)
            threshold -= self.config.keep_margin * l_max.service_rate
            if g_max > threshold:
                return self._record(previous)
        selected = self._select_phase(obs)
        if selected == previous or previous == TRANSITION:
            return self._record(selected)
        self._transition_until = t_k + self.config.transition_duration
        return self._record(TRANSITION)

    def _select_phase(self, obs: QueueObservation) -> int:
        alpha, beta = self.config.alpha, self.config.beta
        ranked: List[Tuple[Phase, float]] = []
        best_overall = -math.inf
        for phase in self.intersection.phases:
            g_max, _ = max_link_gain(self.intersection, phase, obs, alpha, beta)
            ranked.append((phase, g_max))
            best_overall = max(best_overall, g_max)
        if best_overall > alpha:
            candidates = [phase for phase, g_max in ranked if g_max > alpha]
            scores = [
                (phase_gain(self.intersection, phase, obs, alpha, beta), phase)
                for phase in candidates
            ]
        else:
            scores = [(g_max, phase) for phase, g_max in ranked]

        def rank(item: Tuple[float, Phase]) -> Tuple[float, int, int]:
            score, phase = item
            return (-score, 0 if phase.index == self._current else 1, phase.index)

        scores.sort(key=rank)
        return scores[0][1].index
