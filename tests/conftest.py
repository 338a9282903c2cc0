"""Shared fixtures: a single-intersection network, observation builders,
the mixed-phase-plan scenario variant of the parity suites and an
engine whose build always fails."""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Dict, Optional, Tuple

import pytest

from repro.core.engine import ENGINES, register_engine
from repro.model.grid import build_grid_network
from repro.model.phases import Phase
from repro.model.queues import QueueObservation
from repro.scenarios import build_named_scenario

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
    queues default to 0; capacities come from the intersection's roads.
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
    capacities = {
        road_id: road.capacity
        for road_id, road in intersection.out_roads.items()
    }
    return QueueObservation(
        time=time,
        movement_queues=queues,
        out_queues=outs,
        out_capacities=capacities,
    )


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
