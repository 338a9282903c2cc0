"""Print the perf trajectory as paired change/parent ratios.

``BENCH_perfbench.json`` (see ``scripts/record_perfbench.py``) holds,
per change, a ``parent`` point measured on the parent commit and a
``change`` point measured on the change, both in one session.  Raw
levels drift with the host from one session to the next, so this
script reports, per workload and metric, each change's within-session
ratio ``change / parent`` and the chained level: the product of the
ratios so far, i.e. the level relative to the first parent.

A change point is recorded before its commit exists, so its
``commit`` is ``null``.  It is resolved by ``source_sha256``: a later
parent point measured on the same source names the commit.  A change
with no such parent yet shows its source digest instead.

A point recorded from several runs (``runs``, see
``scripts/record_perfbench.py``) contributes its median over the runs;
a single-run point its one value.

The script only reads the file.

Usage
-----
    python3 scripts/perf_trajectory.py
    python3 scripts/perf_trajectory.py --workload closed-loop \\
        --metric slots_per_s.meso-vec-b16
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = REPO_ROOT / "BENCH_perfbench.json"

Point = Dict[str, Any]


def resolve_commits(points: Sequence[Point]) -> List[str]:
    """Each point's commit, or ``source:<digest>`` when still unknown.

    A ``null`` commit takes the commit of a parent point measured on
    the same source.
    """
    by_source = {
        point["perfbench"]["source_sha256"]: point["commit"]
        for point in points
        if point.get("label") == "parent" and point.get("commit")
    }
    names = []
    for point in points:
        source = point["perfbench"]["source_sha256"]
        names.append(
            point.get("commit") or by_source.get(source) or f"source:{source}"
        )
    return names


def pairs(points: Sequence[Point]) -> List[Tuple[str, str, str, Point, Point]]:
    """``(workload, parent name, change name, parent, change)`` in order.

    Each change point pairs with the latest earlier parent point of its
    workload that no other change point has taken.
    """
    names = resolve_commits(points)
    open_parent: Dict[str, int] = {}
    out = []
    for i, point in enumerate(points):
        workload = point["perfbench"]["workload"]
        if point.get("label") == "parent":
            open_parent[workload] = i
        elif point.get("label") == "change" and workload in open_parent:
            j = open_parent.pop(workload)
            out.append((workload, names[j], names[i], points[j], point))
    return out


def metric_value(point: Point, metric: str) -> Optional[float]:
    """The point's median over its runs if recorded, else its one value."""
    summary = point.get("runs", {}).get("metrics", {}).get(metric)
    if summary is not None:
        return summary["median"]
    value = point["result"]["metrics"].get(metric)
    return None if value is None else value["value"]


def trajectory(
    points: Sequence[Point],
    workload: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
) -> Dict[Tuple[str, str], List[Tuple[str, str, float, float, float, float]]]:
    """Per ``(workload, metric)``: rows of paired ratios, oldest first.

    A row is ``(parent name, change name, parent value, change value,
    ratio, chained level)``.  A pair lacking the metric is skipped.
    """
    table: Dict[Tuple[str, str], list] = {}
    for load, parent_name, change_name, parent, change in pairs(points):
        if workload is not None and load != workload:
            continue
        names = metrics or sorted(
            set(parent["result"]["metrics"]) & set(change["result"]["metrics"])
        )
        for metric in names:
            old = metric_value(parent, metric)
            new = metric_value(change, metric)
            if old is None or new is None or not old:
                continue
            rows = table.setdefault((load, metric), [])
            chained = (rows[-1][5] if rows else 1.0) * (new / old)
            rows.append(
                (parent_name, change_name, old, new, new / old, chained)
            )
    return table


def render(table) -> str:
    """The table as text, one block per workload and metric."""
    lines = []
    for (load, metric), rows in sorted(table.items()):
        lines.append(f"{load}  {metric}")
        lines.append(
            f"  {'parent':<15} {'change':<15} {'parent':>9} {'change':>9}"
            f" {'ratio':>7} {'chained':>8}"
        )
        for parent, change, old, new, ratio, chained in rows:
            lines.append(
                f"  {parent[:15]:<15} {change[:15]:<15} {old:>9.6g} "
                f"{new:>9.6g} {ratio:>7.3f} {chained:>8.3f}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--file", type=Path, default=DEFAULT_FILE,
        help="trajectory file (default: BENCH_perfbench.json)",
    )
    parser.add_argument("--workload", default=None, help="only this workload")
    parser.add_argument(
        "--metric", action="append", default=None,
        help="only this metric (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        points = json.loads(args.file.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"perf_trajectory: {error}", file=sys.stderr)
        return 2
    print(render(trajectory(points, args.workload, args.metric)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
