"""``ResultStore.merge_from``: the join of shard stores from several hosts.

Merging is keyed by spec content hash and copies rows verbatim, so it
must be idempotent, must refuse divergent payloads unless told how to
resolve them, and must refuse rows written under a different spec
schema version instead of silently stranding them.
"""

import copy

import pytest

from repro.orchestration import RunSpec
from repro.results import MergeError, MergeStats, ResultStore

#: A schema-complete synthetic payload (no simulation needed to test
#: merge bookkeeping).
PAYLOAD = {
    "scenario_name": "merge-test",
    "controller_name": "util-bp",
    "duration": 600.0,
    "summary": {
        "duration": 600.0,
        "vehicles_entered": 100,
        "vehicles_left": 95,
        "average_queuing_time": 42.0,
        "average_travel_time": 120.0,
        "total_queuing_time": 4200.0,
        "max_queuing_time": 300.0,
        "throughput_per_hour": 570.0,
        "delay_mode": "per-vehicle",
    },
    "vehicles_in_network": 5,
    "backlog": 0,
}


def spec(seed: int) -> RunSpec:
    return RunSpec(pattern="I", seed=seed, duration=600.0)


def payload(queuing: float = 42.0) -> dict:
    out = copy.deepcopy(PAYLOAD)
    out["summary"]["average_queuing_time"] = queuing
    return out


def fill(store: ResultStore, seeds, queuing: float = 42.0) -> None:
    for seed in seeds:
        store.put(spec(seed), payload(queuing))


class TestMergeBasics:
    def test_disjoint_sources_union(self, tmp_path):
        a = ResultStore(tmp_path / "a.sqlite")
        b = ResultStore(tmp_path / "b.sqlite")
        dest = ResultStore(tmp_path / "dest.sqlite")
        fill(a, [1, 2])
        fill(b, [3, 4, 5])
        stats = MergeStats()
        stats.merge(dest.merge_from(a))
        stats.merge(dest.merge_from(b))
        assert (stats.inserted, stats.identical, stats.conflicts) == (5, 0, 0)
        assert stats.total == 5
        assert len(dest) == 5
        for seed in range(1, 6):
            assert dest.contains(spec(seed))

    def test_merge_is_idempotent(self, tmp_path):
        source = ResultStore(tmp_path / "src.sqlite")
        dest = ResultStore(tmp_path / "dest.sqlite")
        fill(source, [1, 2, 3])
        first = dest.merge_from(source)
        again = dest.merge_from(source)
        assert (first.inserted, first.identical) == (3, 0)
        assert (again.inserted, again.identical) == (0, 3)
        assert len(dest) == 3

    def test_merged_rows_are_verbatim_copies(self, tmp_path):
        source = ResultStore(tmp_path / "src.sqlite")
        dest = ResultStore(tmp_path / "dest.sqlite")
        fill(source, [1, 2, 3])
        dest.merge_from(source)
        assert dest.export_rows() == source.export_rows()

    def test_merge_from_path_opens_read_only(self, tmp_path):
        source_path = tmp_path / "src.sqlite"
        with ResultStore(source_path) as source:
            fill(source, [1])
        dest = ResultStore(tmp_path / "dest.sqlite")
        assert dest.merge_from(source_path).inserted == 1

    def test_missing_source_path_raises(self, tmp_path):
        dest = ResultStore(tmp_path / "dest.sqlite")
        with pytest.raises(MergeError, match="no result store"):
            dest.merge_from(tmp_path / "nope.sqlite")

    def test_read_only_destination_rejected(self, tmp_path):
        path = tmp_path / "dest.sqlite"
        with ResultStore(path) as writer:
            fill(writer, [1])
        reader = ResultStore(path, read_only=True)
        other = ResultStore(tmp_path / "src.sqlite")
        with pytest.raises(ValueError, match="read-only"):
            reader.merge_from(other)


class TestMergeConflicts:
    def make_divergent(self, tmp_path):
        source = ResultStore(tmp_path / "src.sqlite")
        dest = ResultStore(tmp_path / "dest.sqlite")
        fill(dest, [1], queuing=42.0)
        fill(source, [1], queuing=99.0)  # same cell, different payload
        fill(source, [2])
        return source, dest

    def test_divergent_payload_raises_by_default(self, tmp_path):
        source, dest = self.make_divergent(tmp_path)
        with pytest.raises(MergeError, match="divergent payload"):
            dest.merge_from(source)
        # Strict merge stops before touching the destination.
        assert len(dest) == 1
        assert not dest.contains(spec(2))

    def test_prefer_ours_keeps_destination_row(self, tmp_path):
        source, dest = self.make_divergent(tmp_path)
        stats = dest.merge_from(source, prefer="ours")
        assert (stats.inserted, stats.conflicts) == (1, 1)
        assert dest.get(spec(1)).summary.average_queuing_time == 42.0

    def test_prefer_theirs_takes_source_row(self, tmp_path):
        source, dest = self.make_divergent(tmp_path)
        stats = dest.merge_from(source, prefer="theirs")
        assert (stats.inserted, stats.conflicts) == (1, 1)
        assert dest.get(spec(1)).summary.average_queuing_time == 99.0

    def test_invalid_prefer_rejected(self, tmp_path):
        dest = ResultStore(tmp_path / "dest.sqlite")
        with pytest.raises(ValueError, match="prefer"):
            dest.merge_from(
                ResultStore(tmp_path / "src.sqlite"), prefer="newest"
            )


class TestMergeSchemaVersions:
    @pytest.mark.parametrize("stale_version", [0, 99])
    def test_foreign_spec_version_rejected(self, tmp_path, stale_version):
        source_path = tmp_path / "src.sqlite"
        with ResultStore(source_path) as source:
            fill(source, [1])
            source._conn.execute(
                "UPDATE results SET spec_version = ?", (stale_version,)
            )
            source._conn.commit()
        dest = ResultStore(tmp_path / "dest.sqlite")
        with pytest.raises(MergeError, match="spec schema version"):
            dest.merge_from(source_path)
        assert len(dest) == 0
