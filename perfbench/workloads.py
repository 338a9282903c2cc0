"""The benchmark's workloads and the inputs it generates for them.

Each workload drives three user paths in one fresh process:

* **loop** — serial ``run_scenario`` on ``steady-10x10`` at two loads on
  each count engine, plus one ``run_scenario_batch`` of 16 seeds on
  meso-vec at the light load;
* **service** — ``repro serve`` in a subprocess, fed by a fixed closed
  loop of HTTP jobs over a store prepared before timing starts.

``closed-loop`` runs everything under util-bp (cap-bp joins it in the
service cells), so controller ``decide`` and observation building
dominate.  ``open-loop`` runs the same paths under fixed-time, where
``decide`` is trivial and engine ``step`` dominates: a controller-only
change must leave it unmoved.

The job *structure* (job sizes, which cells are fresh, pre-stored or
repeated) is fixed, so the service counts repeat exactly on every run;
``--seed`` picks the simulation seeds of every run and cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: The loop grid, its loads, engines and horizon (mini-slots of 1 s).
LOOP_SCENARIO = "steady-10x10"
LOADS = (0.1, 1.0)
ENGINES = ("meso-counts", "meso-events", "meso-vec")
LOOP_DURATION = 240.0
BATCH_WIDTH = 16
BATCH_LOAD = 0.1
BATCH_LABEL = "meso-vec-b16"

#: The service cells: paper patterns on the per-vehicle and count
#: engines, 120 s each, plus multi-seed meso-vec groups.
CELL_PATTERNS = ("I", "II", "III", "IV")
CELL_ENGINES = ("meso", "meso-counts")
CELL_DURATION = 120.0
JOBS = 200
CLIENT_THREADS = 2
#: Every GROUP_EVERY-th job is a meso-vec seed group the pool batches.
GROUP_EVERY = 8
#: Fixed seed of the job structure (not of the simulations).
STRUCTURE_SEED = 20200309


@dataclass(frozen=True)
class Workload:
    """One workload: a controller family across all three user paths.

    Its one-line reason is in ``BENCHMARK.json``.  ``batch_gate`` is the
    ``(fast, reference)`` step() gate of ``benchmarks/baseline_ci.json``
    in the same regime as this workload's B=16 run.
    """

    name: str
    controller: str
    controller_params: Optional[Dict[str, Any]]
    record_queues: bool
    cell_controllers: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    batch_gate: Tuple[str, str]


WORKLOADS: Dict[str, Workload] = {
    "closed-loop": Workload(
        name="closed-loop",
        controller="util-bp",
        controller_params=None,
        record_queues=True,
        cell_controllers=(("util-bp", ()), ("cap-bp", (("period", 18),))),
        batch_gate=(
            "step/meso-vec-b16-utilbp/steady-10x10-l10",
            "step/meso-counts-utilbp/steady-10x10-l10",
        ),
    ),
    "open-loop": Workload(
        name="open-loop",
        controller="fixed-time",
        controller_params={"period": 20},
        record_queues=False,
        cell_controllers=(("fixed-time", (("period", 20),)),),
        batch_gate=(
            "step/meso-vec-b16/steady-10x10-l10",
            "step/meso-counts/steady-10x10-l10",
        ),
    ),
}


def loop_seeds(seed: int) -> Tuple[int, ...]:
    """Seeds of the B=16 batch; member 0 is the serial runs' seed."""
    return tuple(seed + b for b in range(BATCH_WIDTH))


@dataclass
class PlannedJob:
    """One job of the service closed loop and what it must report."""

    thread: int
    specs: list
    expected: Dict[str, int]


@dataclass
class JobPlan:
    """Every job, the cells stored before timing, and the totals."""

    jobs: List[PlannedJob]
    prestored: list
    executed: int
    from_store: int
    shared: int
    batch_units: int


def plan_jobs(workload: Workload, seed: int) -> JobPlan:
    """The service workload for one seed.

    About half the cell slots are fresh cells (execute + store write),
    a quarter pre-stored cells (store read) and a quarter repeats of a
    cell from an earlier job *of the same client thread* — that job has
    already been submitted, so the repeat is always a registry share
    whatever the interleaving of the two threads.
    """
    from repro.api import RunSpec

    structure = random.Random(STRUCTURE_SEED)
    counter = iter(range(1, 1_000_000))

    def cell(engine: str, pattern: str, controller) -> Any:
        name, params = controller
        return RunSpec(
            pattern=pattern,
            controller=name,
            controller_params=params,
            engine=engine,
            seed=seed * 100_000 + next(counter),
            duration=CELL_DURATION,
        )

    def random_cell() -> Any:
        return cell(
            structure.choice(CELL_ENGINES),
            structure.choice(CELL_PATTERNS),
            structure.choice(workload.cell_controllers),
        )

    origin: Dict[Any, str] = {}
    history: List[List[Any]] = [[] for _ in range(CLIENT_THREADS)]
    jobs: List[PlannedJob] = []
    prestored: list = []
    shared_total = batch_units = 0
    for index in range(JOBS):
        thread = index % CLIENT_THREADS
        specs: list = []
        shared = 0
        if index % GROUP_EVERY == GROUP_EVERY - 1:
            pattern = structure.choice(CELL_PATTERNS)
            controller = workload.cell_controllers[0]
            for _ in range(structure.randint(2, 4)):
                spec = cell("meso-vec", pattern, controller)
                origin[spec] = "executed"
                specs.append(spec)
            batch_units += 1
        else:
            for _ in range(structure.randint(1, 4)):
                kind = structure.choices(
                    ("fresh", "stored", "repeat"), weights=(2, 1, 1)
                )[0]
                earlier = [s for s in history[thread] if s not in specs]
                if kind == "repeat" and earlier:
                    specs.append(structure.choice(earlier))
                    shared += 1
                    continue
                spec = random_cell()
                if kind == "stored":
                    origin[spec] = "store"
                    prestored.append(spec)
                else:
                    origin[spec] = "executed"
                specs.append(spec)
        history[thread].extend(specs)
        shared_total += shared
        jobs.append(
            PlannedJob(
                thread=thread,
                specs=specs,
                expected={
                    "total": len(specs),
                    "done": len(specs),
                    "failed": 0,
                    "pending": 0,
                    "executed": sum(origin[s] == "executed" for s in specs),
                    "from_store": sum(origin[s] == "store" for s in specs),
                    "shared": shared,
                },
            )
        )
    return JobPlan(
        jobs=jobs,
        prestored=prestored,
        executed=sum(source == "executed" for source in origin.values()),
        from_store=len(prestored),
        shared=shared_total,
        batch_units=batch_units,
    )
