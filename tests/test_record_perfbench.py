"""``scripts/record_perfbench.py``: perfbench output -> trajectory point."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "record_perfbench.py"
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


META = {"workload": "open-loop", "seed": 1, "trace": 0, "commit": "abc123",
        "source_sha256": "0f0f", "nproc": 2, "python": "3.11.7",
        "numpy": "2.0.0", "rounds": 16}
RESULT = {"correct": True, "attempted": 9, "failed": 0,
          "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
OUTPUT = "report line\n" + json.dumps({"perfbench": META, "samples": {}}) + "\n" + json.dumps(
    RESULT
) + "\n"


def test_appends_perfbench_meta_and_result_as_printed(tmp_path, monkeypatch):
    record = _load("record_perfbench", SCRIPT)
    trajectory = tmp_path / "BENCH_perfbench.json"
    monkeypatch.setattr(record, "DEFAULT_FILE", trajectory)
    run = tmp_path / "run.txt"
    run.write_text(OUTPUT)
    assert record.main([str(run), "--label", "parent"]) == 0
    assert record.main([str(run)]) == 0
    first, second = json.loads(trajectory.read_text())
    assert first["perfbench"] == second["perfbench"] == META
    assert first["result"] == second["result"] == RESULT
    assert (first["label"], second["label"]) == ("parent", None)
    # No commit of this repository holds a source with digest "0f0f".
    assert first["commit"] is None


def test_last_lines_must_be_metadata_and_result(tmp_path, monkeypatch):
    record = _load("record_perfbench", SCRIPT)
    with pytest.raises(ValueError, match="metrics"):
        record.parse_output(json.dumps({"perfbench": META}))
    with pytest.raises(ValueError, match="not JSON"):
        record.parse_output("Traceback (most recent call last):\n  boom\n")
    with pytest.raises(ValueError, match="metadata"):
        record.parse_output("report line\n" + json.dumps(RESULT))
    trajectory = tmp_path / "t.json"
    monkeypatch.setattr(record, "DEFAULT_FILE", trajectory)
    run = tmp_path / "run.txt"
    run.write_text("")
    assert record.main([str(run)]) == 2
    assert not trajectory.exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_only_when_head_holds_the_measured_source(tmp_path, monkeypatch):
    """The point's commit is HEAD exactly when perfbench measured HEAD's source."""
    record = _load("record_perfbench", SCRIPT)
    src = tmp_path / "src"
    # ``pkg/core.py`` and ``pkg/core/x.py`` sort differently as strings
    # and as paths; the digest must follow perfbench's (path) order.
    for name in ("a.py", "pkg/core.py", "pkg/core/x.py", "pkg/data.json"):
        path = src / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"# {name}\n")

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "source")
    head = git("rev-parse", "HEAD")

    added = [name for name in ("workloads", "tracing") if name not in sys.modules]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        perfbench = _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        for name in added:
            sys.modules.pop(name, None)
    monkeypatch.setattr(perfbench, "SRC", src)

    measured = perfbench.source_digest()
    assert record.committed_source_digest(tmp_path) == measured
    assert record.recorded_commit(measured, root=tmp_path) == head
    (src / "pkg" / "core.py").write_text("# changed, not committed\n")
    assert record.recorded_commit(perfbench.source_digest(), root=tmp_path) is None


def _output(meta=None, **values):
    result = {
        "correct": True, "attempted": 9, "failed": 0,
        "metrics": {
            name: {"value": value, "unit": "1/s"} for name, value in values.items()
        },
    }
    return json.dumps({"perfbench": {**META, **(meta or {})}}) + "\n" + json.dumps(result)


def test_several_runs_record_median_quartiles_and_raw_values(tmp_path, monkeypatch):
    record = _load("record_perfbench", SCRIPT)
    trajectory = tmp_path / "BENCH_perfbench.json"
    monkeypatch.setattr(record, "DEFAULT_FILE", trajectory)
    paths = []
    for i, rate in enumerate((40.0, 10.0, 30.0, 20.0)):
        path = tmp_path / f"run{i}.txt"
        # The second run lacks "setup": summarized over the other three.
        extra = {} if i == 1 else {"setup": float(i)}
        path.write_text("report\n" + _output(rate=rate, **extra) + "\n")
        paths.append(str(path))
    assert record.main(paths + ["--label", "change"]) == 0
    (point,) = json.loads(trajectory.read_text())
    # The point keeps the first output's lines as perfbench printed them.
    assert point["perfbench"] == META
    assert point["result"]["metrics"]["rate"]["value"] == 40.0
    runs = point["runs"]
    assert runs["n"] == 4 and runs["failed"] == [0, 0, 0, 0]
    rate = runs["metrics"]["rate"]
    assert rate["values"] == [40.0, 10.0, 30.0, 20.0]
    assert (rate["median"], rate["q1"], rate["q3"], rate["n"]) == (
        25.0, 12.5, 37.5, 4
    )
    assert rate["unit"] == "1/s"
    assert runs["metrics"]["setup"]["values"] == [0.0, 2.0, 3.0]
    assert runs["metrics"]["setup"]["median"] == 2.0


def test_single_run_point_has_no_run_summary(tmp_path, monkeypatch):
    record = _load("record_perfbench", SCRIPT)
    trajectory = tmp_path / "BENCH_perfbench.json"
    monkeypatch.setattr(record, "DEFAULT_FILE", trajectory)
    run = tmp_path / "run.txt"
    run.write_text(OUTPUT)
    assert record.main([str(run)]) == 0
    (point,) = json.loads(trajectory.read_text())
    assert set(point) == {"commit", "label", "perfbench", "result"}


@pytest.mark.parametrize(
    "differ",
    ({"workload": "closed-loop"}, {"seed": 2}, {"source_sha256": "1e1e"}),
    ids=("workload", "seed", "source"),
)
def test_runs_of_different_trees_are_refused(tmp_path, monkeypatch, capsys, differ):
    record = _load("record_perfbench", SCRIPT)
    trajectory = tmp_path / "BENCH_perfbench.json"
    monkeypatch.setattr(record, "DEFAULT_FILE", trajectory)
    same = tmp_path / "same.txt"
    same.write_text(_output(rate=1.0))
    other = tmp_path / "other.txt"
    other.write_text(_output(differ, rate=2.0))
    assert record.main([str(same), str(same), str(other)]) == 2
    assert f"outputs differ in {next(iter(differ))}" in capsys.readouterr().err
    assert not trajectory.exists()
