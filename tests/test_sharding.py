"""``SweepGrid.shard``: the deterministic partition behind scale-out.

``repro sweep --shard i/N`` on several hosts and sharded service
submissions rely on the same contract: for any shard count N the
shards are pairwise disjoint, their union is the full grid, and the
assignment depends only on spec *content* — not on axis ordering,
expansion order, or which process computes it.
"""

import pytest

from repro.orchestration import SweepGrid
from repro.orchestration.spec import parse_shard, shard_index_of


def make_grid(**overrides) -> SweepGrid:
    base = dict(
        scenarios=("steady-3x3", "surge-4x4"),
        controllers=(("util-bp", ()), ("cap-bp", (("period", 18.0),))),
        engines=("meso", "meso-counts"),
        seeds=(1, 2, 3),
    )
    base.update(overrides)
    return SweepGrid(**base)


def hashes(specs):
    return {spec.spec_hash() for spec in specs}


class TestShardPartition:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_disjoint_and_complete(self, count):
        grid = make_grid()
        shards = [grid.shard(index, count) for index in range(count)]
        assert sum(len(shard) for shard in shards) == len(grid)
        union = set()
        for shard in shards:
            shard_hashes = hashes(shard)
            assert not union & shard_hashes  # pairwise disjoint
            union |= shard_hashes
        assert union == hashes(grid.specs())

    def test_more_shards_than_cells(self):
        grid = make_grid()
        count = len(grid) + 20
        shards = [grid.shard(index, count) for index in range(count)]
        assert sum(len(shard) for shard in shards) == len(grid)
        assert any(len(shard) == 0 for shard in shards)
        assert set().union(*(hashes(s) for s in shards)) == hashes(
            grid.specs()
        )

    def test_single_shard_is_whole_grid(self):
        grid = make_grid()
        assert grid.shard(0, 1) == grid.specs()

    def test_assignment_ignores_axis_ordering(self):
        # Same cells, axes permuted: expansion order changes, but the
        # content-hash partition must not.
        grid = make_grid()
        permuted = make_grid(
            scenarios=("surge-4x4", "steady-3x3"),
            controllers=(("cap-bp", (("period", 18.0),)), ("util-bp", ())),
            engines=("meso-counts", "meso"),
            seeds=(3, 1, 2),
        )
        assert hashes(grid.specs()) == hashes(permuted.specs())
        for index in range(3):
            assert hashes(grid.shard(index, 3)) == hashes(
                permuted.shard(index, 3)
            )

    def test_stable_across_invocations(self):
        grid = make_grid()
        assert grid.shard(1, 4) == grid.shard(1, 4)
        # A structurally equal grid built separately agrees too.
        assert make_grid().shard(1, 4) == grid.shard(1, 4)

    def test_shard_index_of_matches_membership(self):
        grid = make_grid()
        for spec in grid.specs():
            index = shard_index_of(spec, 5)
            assert 0 <= index < 5
            assert spec in grid.shard(index, 5)

    @pytest.mark.parametrize(
        "index,count", [(-1, 2), (2, 2), (0, 0), (0, -3)]
    )
    def test_invalid_designators_rejected(self, index, count):
        with pytest.raises(ValueError):
            make_grid().shard(index, count)

    def test_shard_index_of_rejects_bad_count(self):
        spec = make_grid().specs()[0]
        with pytest.raises(ValueError):
            shard_index_of(spec, 0)


class TestParseShard:
    @pytest.mark.parametrize(
        "text,expected",
        [("0/1", (0, 1)), ("0/4", (0, 4)), ("3/4", (3, 4)), ([1, 2], (1, 2)), ((0, 4), (0, 4))],
    )
    def test_valid(self, text, expected):
        assert parse_shard(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "", "3", "a/4", "1/b", "1/0", "4/4", "-1/4", "1/-2", "1/2/3",
            [1, 2, 3], [2, 2], [1.0, 2], ["1", "2"], None,
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)
