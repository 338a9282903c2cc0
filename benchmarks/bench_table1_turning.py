"""Table I — turning probabilities of vehicles entering the network.

Regenerates Table I empirically: sample many routes per entry side and
check the realized right/left/straight fractions against the paper's
probabilities.
"""

import numpy as np
import pytest

from repro.scenarios.patterns import TURNING
from repro.model.geometry import Direction, TurnType
from repro.model.grid import build_grid_network
from repro.model.routing import RouteSampler
from repro.util.tables import render_table

SAMPLES = 4000


def _classify(network, sampler, route):
    """Recover the executed manoeuvre from a sampled route."""
    for current, nxt in zip(route, route[1:]):
        movement = network.downstream_intersection(current).movements[
            (current, nxt)
        ]
        if movement.turn is not TurnType.STRAIGHT:
            return movement.turn
    return TurnType.STRAIGHT


def _empirical_fractions():
    network = build_grid_network(3, 3)
    sampler = RouteSampler(network, TURNING, np.random.default_rng(42))
    by_side = {side: {turn: 0 for turn in TurnType} for side in Direction}
    counts = {side: 0 for side in Direction}
    entries = network.entry_roads()
    for _ in range(SAMPLES // len(entries)):
        for entry in entries:
            side = sampler.entry_side(entry)
            turn = _classify(network, sampler, sampler.sample_route(entry))
            by_side[side][turn] += 1
            counts[side] += 1
    return {
        side: {
            turn: by_side[side][turn] / counts[side] for turn in TurnType
        }
        for side in Direction
    }


def test_table1_turning_probabilities(benchmark):
    fractions = benchmark.pedantic(
        _empirical_fractions, rounds=1, iterations=1
    )
    rows = []
    for side in Direction:
        rows.append(
            (
                side.value,
                f"{fractions[side][TurnType.RIGHT]:.3f}",
                f"{TURNING.right[side]:.1f}",
                f"{fractions[side][TurnType.LEFT]:.3f}",
                f"{TURNING.left[side]:.1f}",
            )
        )
    print()
    print(
        render_table(
            ("entry side", "right (meas)", "right (paper)", "left (meas)",
             "left (paper)"),
            rows,
            title="Table I — turning probabilities, measured vs paper",
        )
    )
    for side in Direction:
        assert fractions[side][TurnType.RIGHT] == pytest.approx(
            TURNING.right[side], abs=0.04
        )
        assert fractions[side][TurnType.LEFT] == pytest.approx(
            TURNING.left[side], abs=0.04
        )
