"""Collect the reproduction numbers recorded in EXPERIMENTS.md.

Runs every table/figure driver and prints a consolidated report:

* Table III + Fig. 2 at the paper's full horizons on the mesoscopic
  engine;
* Table III (patterns I and IV) and Figs. 3-5 at reduced horizons on
  the microscopic engine (the SUMO substitute);
* all ablation studies.

Every driver is an :class:`repro.results.ExperimentDefinition` whose
cells go through one shared :class:`repro.orchestration.ExperimentPool`
— so ``--workers N`` runs the independent cells N-wide, and
``--store FILE`` backs the pool with one shared
:class:`repro.results.ResultStore`: an interrupted collection resumes
by computing only the missing cells, and cells common to several
drivers are simulated exactly once.

Usage: python scripts/collect_results.py [--workers N] [--store FILE]
"""

import argparse
import time

from repro.experiments.ablations import (
    ABLATIONS,
    render_ablation,
    run_ablation,
)
from repro.experiments.fig2 import render_fig2, run_fig2
from repro.experiments.fig34 import render_fig34, run_fig34
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.table3 import render_table3, run_table3
from repro.orchestration import ExperimentPool


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep pool (1 = serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="FILE",
        help=(
            "SQLite result store shared by every driver; completed "
            "cells are never re-simulated"
        ),
    )
    args = parser.parse_args()
    pool = ExperimentPool(workers=args.workers, store=args.store)

    start = time.time()

    banner("Table III — meso engine, full paper horizons (1 h / 4 h mixed)")
    rows = run_table3(engine="meso", duration_scale=1.0, pool=pool)
    print(render_table3(rows))
    mean = sum(r.improvement_percent for r in rows) / len(rows)
    print(f"mean improvement: {mean:.1f}% (paper: ~13%)")

    banner("Fig. 2 — meso engine, full mixed horizon (4 h), 10-80 s sweep")
    print(render_fig2(run_fig2(engine="meso", pool=pool)))

    banner("Table III — micro engine, patterns I/IV, 30 min horizons")
    rows_micro = run_table3(
        patterns=("I", "IV"),
        engine="micro",
        periods=(14.0, 18.0, 22.0),
        duration_scale=0.5,
        pool=pool,
    )
    print(render_table3(rows_micro))

    banner("Figs. 3-4 — micro engine, Pattern I, 2000 s")
    print(render_fig34(run_fig34(engine="micro", pool=pool)))

    banner("Fig. 5 — micro engine, Pattern I, 2000 s")
    print(render_fig5(run_fig5(engine="micro", pool=pool)))

    banner("Ablations — meso engine, Pattern I, 1800 s")
    for study in ABLATIONS:
        print(render_ablation(run_ablation(study, pool=pool)))
        print()

    print(
        f"\ntotal wall time: {time.time() - start:.0f} s  "
        f"(cells executed: {pool.stats.executed}, "
        f"cache hits: {pool.stats.cache_hits}, workers: {pool.workers})"
    )


if __name__ == "__main__":
    main()
