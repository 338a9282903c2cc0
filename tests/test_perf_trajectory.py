"""``scripts/perf_trajectory.py``: paired ratios from the perf trajectory."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "perf_trajectory.py"


def _load():
    spec = importlib.util.spec_from_file_location("perf_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _point(label, commit, source, workload, **values):
    return {
        "commit": commit,
        "label": label,
        "perfbench": {"workload": workload, "source_sha256": source},
        "result": {
            "metrics": {
                name: {"value": value, "unit": "1/s"}
                for name, value in values.items()
            }
        },
    }


#: Two changes on two workloads, points interleaved as sessions record
#: them.  The first change (source "b") is committed as "c2", which the
#: second change's parent point names; the second change (source "c")
#: has no commit yet.
FIXTURE = [
    _point("parent", "c1", "a", "closed-loop", rate=100.0, setup=2.0),
    _point("parent", "c1", "a", "open-loop", rate=400.0),
    _point("change", None, "b", "closed-loop", rate=150.0, setup=1.0),
    _point("change", None, "b", "open-loop", rate=440.0),
    _point("parent", "c2", "b", "open-loop", rate=300.0),
    _point("change", None, "c", "open-loop", rate=330.0),
    _point("parent", "c2", "b", "closed-loop", rate=120.0, setup=1.5),
    _point("change", None, "c", "closed-loop", rate=240.0),
]


def test_change_points_resolve_by_source():
    module = _load()
    names = module.resolve_commits(FIXTURE)
    assert names[2] == names[3] == "c2"
    assert names[5] == names[7] == "source:c"
    assert names[0] == "c1"


def test_paired_ratios_and_chained_level():
    module = _load()
    table = module.trajectory(FIXTURE)
    rate = table[("closed-loop", "rate")]
    assert [row[:2] for row in rate] == [("c1", "c2"), ("c2", "source:c")]
    assert [row[4] for row in rate] == pytest.approx([1.5, 2.0])
    assert [row[5] for row in rate] == pytest.approx([1.5, 3.0])
    # A pair lacking the metric is skipped, not read as zero.
    assert [row[4] for row in table[("closed-loop", "setup")]] == [0.5]
    open_rate = table[("open-loop", "rate")]
    assert [row[5] for row in open_rate] == pytest.approx([1.1, 1.21])


def test_cli_filters_and_reads_only(tmp_path, capsys):
    module = _load()
    path = tmp_path / "trajectory.json"
    text = json.dumps(FIXTURE)
    path.write_text(text)
    assert module.main(
        ["--file", str(path), "--workload", "closed-loop", "--metric", "rate"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "closed-loop  rate"
    assert out[2].split() == ["c1", "c2", "100", "150", "1.500", "1.500"]
    assert out[3].split() == ["c2", "source:c", "120", "240", "2.000", "3.000"]
    assert len(out) == 4
    assert path.read_text() == text


def test_multi_run_points_contribute_their_median():
    module = _load()
    parent = _point("parent", "c1", "a", "closed-loop", rate=100.0, setup=2.0)
    parent["runs"] = {
        "n": 3,
        "failed": [0, 0, 0],
        "metrics": {"rate": {"median": 80.0, "q1": 70.0, "q3": 90.0, "n": 3,
                             "unit": "1/s", "values": [100.0, 80.0, 70.0]}},
    }
    change = _point("change", None, "b", "closed-loop", rate=150.0, setup=1.0)
    table = module.trajectory([parent, change])
    # The median where the point recorded one, else the single value.
    assert [row[2:5] for row in table[("closed-loop", "rate")]] == [
        (80.0, 150.0, 1.875)
    ]
    assert [row[4] for row in table[("closed-loop", "setup")]] == [0.5]


def test_unreadable_file_exits_2(tmp_path, capsys):
    module = _load()
    assert module.main(["--file", str(tmp_path / "missing.json")]) == 2
    assert "perf_trajectory" in capsys.readouterr().err
