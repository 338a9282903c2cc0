"""Table II — average inter-arrival times of vehicles entering.

Regenerates Table II empirically: simulate each pattern's arrival
processes and compare the measured mean inter-arrival time per entry
side with the paper's 3-9 s specification.
"""

import numpy as np
import pytest

from repro.scenarios.patterns import arrival_schedule, interarrival_times
from repro.model.arrivals import PoissonArrivals, SlotGrid, slot_times
from repro.model.geometry import Direction
from repro.util.tables import render_table

HORIZON = 40_000.0  # simulated seconds per process
SLOTS = SlotGrid(slot_times(0.0, 1.0, int(HORIZON)), 1.0)  # one-second slots


def _measure_pattern(pattern):
    measured = {}
    for side in Direction:
        schedule = arrival_schedule(pattern, side)
        process = PoissonArrivals(schedule, np.random.default_rng(7))
        arrivals = int(process.sample_count_block(SLOTS).sum())
        measured[side] = HORIZON / arrivals
    return measured


@pytest.mark.parametrize("pattern", ["I", "II", "III", "IV"])
def test_table2_interarrival_times(benchmark, pattern):
    measured = benchmark.pedantic(
        _measure_pattern, args=(pattern,), rounds=1, iterations=1
    )
    expected = interarrival_times(pattern)
    rows = [
        (side.value, f"{measured[side]:.2f}", f"{expected[side]:.0f}")
        for side in Direction
    ]
    print()
    print(
        render_table(
            ("entry side", "measured [s]", "paper [s]"),
            rows,
            title=f"Table II — inter-arrival times, pattern {pattern}",
        )
    )
    for side in Direction:
        assert measured[side] == pytest.approx(expected[side], rel=0.05)
