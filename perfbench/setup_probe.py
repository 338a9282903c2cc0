"""Set-up probe for the loop paths, run in a fresh interpreter.

Imports ``repro.api``, builds the workload's scenarios and drives one
mini-slot through every engine the workload times (which constructs
each engine and controller), then prints ``ready``.  The parent times
spawn-to-``ready``.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (  # noqa: E402
    BATCH_LOAD,
    ENGINES,
    LOADS,
    LOOP_SCENARIO,
    WORKLOADS,
    loop_seeds,
)


def main(name: str, seed: int) -> None:
    import repro.api as api

    workload = WORKLOADS[name]
    knobs = dict(
        controller=workload.controller,
        controller_params=workload.controller_params,
        duration=1.0,
    )
    for load in LOADS:
        scenario = api.build_named_scenario(LOOP_SCENARIO, seed=seed, load=load)
        for engine in ENGINES:
            api.run_scenario(scenario, engine=engine, **knobs)
    batch = [
        api.build_named_scenario(LOOP_SCENARIO, seed=s, load=BATCH_LOAD)
        for s in loop_seeds(seed)
    ]
    api.run_scenario_batch(batch, engine="meso-vec", **knobs)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
