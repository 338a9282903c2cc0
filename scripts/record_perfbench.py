"""Append one perfbench result to the committed perf trajectory.

``perfbench/run.py`` ends its output with two JSON lines: the run's
metadata (workload, seed, commit, source digest, nproc, python, numpy,
...) and the result (``correct``, ``attempted``, ``failed``,
``metrics``).  This script appends one point holding both lines, as
perfbench printed them, to ``BENCH_perfbench.json`` at the repository
root (a JSON list, oldest point first), so the trajectory lives in git
instead of in CI artifacts.

Given several outputs of one tree (the same workload, seed and
``source_sha256``, e.g. the change side of alternating pairs), the
point keeps the first output's two lines and adds ``runs``: each
run's ``failed`` count and, per metric, the median, first and third
quartile and count over the runs, with the raw values.  Outputs of
different trees, workloads or seeds are refused (exit 2).

perfbench reports the checkout's ``HEAD`` as its commit, also when the
measured source has uncommitted changes on top of it.  The point's own
``commit`` is therefore this repository's ``HEAD`` only when the
measured ``source_sha256`` is the digest of the source committed at
``HEAD``, and ``null`` otherwise (work not yet committed).

Usage
-----
    python3 perfbench/run.py --workload open-loop --seed 1 > run.txt
    python3 scripts/record_perfbench.py run.txt --label parent
    python3 scripts/record_perfbench.py change-*.txt --label change
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path, PurePosixPath
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = REPO_ROOT / "BENCH_perfbench.json"


def parse_output(text: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(metadata, result)`` from perfbench's standard output."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no perfbench output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise ValueError(f"last line is not JSON: {error}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a perfbench result (no 'metrics')")
    try:
        before = json.loads(lines[-2]) if len(lines) >= 2 else None
    except json.JSONDecodeError:
        before = None
    if not isinstance(before, dict) or "perfbench" not in before:
        raise ValueError("no perfbench metadata line before the result")
    return before["perfbench"], result


#: Metadata every output of one multi-run point must share.
SHARED_KEYS = ("workload", "seed", "source_sha256")


def summarize_runs(
    outputs: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]]
) -> Dict[str, Any]:
    """The ``runs`` entry of a point over several ``(metadata, result)``.

    Raises ``ValueError`` unless every output shares :data:`SHARED_KEYS`
    with the first.  A metric some run lacks is summarized over the
    runs that report it.
    """
    first = outputs[0][0]
    for meta, _ in outputs[1:]:
        differ = [key for key in SHARED_KEYS if meta.get(key) != first.get(key)]
        if differ:
            raise ValueError(
                f"outputs differ in {', '.join(differ)}: "
                f"{[meta.get(key) for key in differ]} vs "
                f"{[first.get(key) for key in differ]}"
            )
    values: Dict[str, List[float]] = {}
    units: Dict[str, Any] = {}
    for _, result in outputs:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric.get("unit")
    metrics = {}
    for name, samples in values.items():
        ordered = sorted(samples)
        median = statistics.median(ordered)
        if len(ordered) >= 2:
            q1, _, q3 = statistics.quantiles(ordered, n=4)
        else:
            q1 = q3 = median
        metrics[name] = {
            "median": median, "q1": q1, "q3": q3, "n": len(samples),
            "unit": units[name], "values": samples,
        }
    return {
        "n": len(outputs),
        "failed": [result.get("failed") for _, result in outputs],
        "metrics": metrics,
    }


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, check=True
    ).stdout


def committed_source_digest(root: Path) -> str:
    """perfbench's ``source_sha256`` of the ``src/`` tree at ``HEAD``.

    Hashes each committed ``src/**/*.py`` file's path (relative to
    ``src``) and bytes in ``pathlib`` order, as perfbench does for the
    files on disk.
    """
    archive = tarfile.open(
        fileobj=io.BytesIO(_git(root, "archive", "--format=tar", "HEAD", "src"))
    )
    files = {
        PurePosixPath(member.name).relative_to("src"): member
        for member in archive.getmembers()
        if member.isfile() and member.name.endswith(".py")
    }
    digest = hashlib.sha256()
    for relative in sorted(files):
        digest.update(str(relative).encode())
        digest.update(archive.extractfile(files[relative]).read())
    return digest.hexdigest()[:16]


def recorded_commit(source_sha256: str, root: Path = REPO_ROOT) -> Optional[str]:
    """``HEAD`` of ``root`` if it holds exactly the measured source, else None."""
    try:
        if committed_source_digest(root) != source_sha256:
            return None
        return _git(root, "rev-parse", "HEAD").decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def append_point(path: Path, point: Dict[str, Any]) -> int:
    """Append ``point`` to the trajectory at ``path``; return its length."""
    points: List[Dict[str, Any]] = []
    if path.exists():
        points = json.loads(path.read_text())
        if not isinstance(points, list):
            raise ValueError(f"{path} does not hold a JSON list")
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    return len(points)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="+",
        help="file(s) holding perfbench's standard output, one run each",
    )
    parser.add_argument(
        "--label", default=None,
        help="free-form note stored with the point (e.g. parent, change)",
    )
    args = parser.parse_args(argv)
    try:
        outputs = [parse_output(Path(path).read_text()) for path in args.output]
        runs = summarize_runs(outputs) if len(outputs) > 1 else None
    except ValueError as error:
        print(f"record_perfbench: {error}", file=sys.stderr)
        return 2
    meta, result = outputs[0]
    point = {
        "commit": recorded_commit(meta.get("source_sha256")),
        "label": args.label,
        "perfbench": meta,
        "result": result,
    }
    if runs is not None:
        point["runs"] = runs
    count = append_point(DEFAULT_FILE, point)
    print(
        f"appended {meta.get('workload')} @ {point['commit']} "
        f"(failed {result.get('failed')}) to {DEFAULT_FILE}: {count} points"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
