"""Append one perfbench result to the committed perf trajectory.

``perfbench/run.py`` ends its output with two JSON lines: the run's
metadata (workload, seed, commit, source digest, nproc, python, numpy,
...) and the result (``correct``, ``attempted``, ``failed``,
``metrics``).  This script appends one point holding both lines, as
perfbench printed them, to ``BENCH_perfbench.json`` at the repository
root (a JSON list, oldest point first), so the trajectory lives in git
instead of in CI artifacts.

perfbench reports the checkout's ``HEAD`` as its commit, also when the
measured source has uncommitted changes on top of it.  The point's own
``commit`` is therefore this repository's ``HEAD`` only when the
measured ``source_sha256`` is the digest of the source committed at
``HEAD``, and ``null`` otherwise (work not yet committed).

Usage
-----
    python3 perfbench/run.py --workload open-loop --seed 1 > run.txt
    python3 scripts/record_perfbench.py run.txt --label parent
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path, PurePosixPath
from typing import Any, Dict, List, Optional, Tuple

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
    parser.add_argument("output", help="file holding perfbench's standard output")
    parser.add_argument(
        "--label", default=None,
        help="free-form note stored with the point (e.g. parent, change)",
    )
    args = parser.parse_args(argv)
    try:
        meta, result = parse_output(Path(args.output).read_text())
    except ValueError as error:
        print(f"record_perfbench: {error}", file=sys.stderr)
        return 2
    point = {
        "commit": recorded_commit(meta.get("source_sha256")),
        "label": args.label,
        "perfbench": meta,
        "result": result,
    }
    count = append_point(DEFAULT_FILE, point)
    print(
        f"appended {meta.get('workload')} @ {point['commit']} "
        f"(failed {result.get('failed')}) to {DEFAULT_FILE}: {count} points"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
