"""Tests for the shard partition/seed/execution runtime."""

import pytest

from repro.runtime import TaskError
from repro.runtime.sharding import (
    SHARD_STRATEGIES,
    ShardPlan,
    map_shards,
    partition_indices,
    run_sharded,
    shard_node_seeds,
)
from repro.runtime.config import ExecutionConfig


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestPartitionIndices:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    @pytest.mark.parametrize("n_items,shards", [(1, 1), (5, 2), (7, 3), (8, 8), (100, 7)])
    def test_partition_invariants(self, n_items, shards, strategy):
        plan = partition_indices(n_items, shards, strategy)
        # non-empty, disjoint, covering
        seen = []
        for shard in plan.shards:
            assert len(shard) > 0
            seen.extend(shard.node_indices)
        assert sorted(seen) == list(range(n_items))
        assert len(seen) == len(set(seen))
        # balanced: sizes differ by at most one
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_blocks(self):
        plan = partition_indices(7, 3, "contiguous")
        assert [s.node_indices for s in plan.shards] == [
            (0, 1, 2),
            (3, 4),
            (5, 6),
        ]

    def test_round_robin_stride(self):
        plan = partition_indices(7, 3, "round-robin")
        assert [s.node_indices for s in plan.shards] == [
            (0, 3, 6),
            (1, 4),
            (2, 5),
        ]

    def test_shards_clamped_to_items(self):
        plan = partition_indices(3, 8)
        assert plan.n_shards == 3
        assert all(len(s) == 1 for s in plan.shards)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_indices(0, 1)
        with pytest.raises(ValueError):
            partition_indices(4, 0)
        with pytest.raises(ValueError):
            partition_indices(4, 2, "bogus")


class TestShardNodeSeeds:
    def test_legacy_matches_historical_scheme(self):
        assert shard_node_seeds(2010, 4) == [2010, 2011, 2012, 2013]

    def test_legacy_requires_integer_seed(self):
        with pytest.raises(ValueError):
            shard_node_seeds(None, 3, mode="legacy")

    def test_spawn_mode_reproducible_and_entropy_ok(self):
        a = shard_node_seeds(7, 16, mode="spawn")
        b = shard_node_seeds(7, 16, mode="spawn")
        assert a == b
        assert len(shard_node_seeds(None, 4, mode="spawn")) == 4

    @pytest.mark.parametrize("mode", ["legacy", "spawn"])
    def test_collision_free_across_shards(self, mode):
        # Every shard's seed set is disjoint from every other shard's,
        # for both strategies — seeds are keyed by global node index.
        seeds = shard_node_seeds(42, 50, mode=mode)
        assert len(set(seeds)) == len(seeds)
        for strategy in SHARD_STRATEGIES:
            plan = partition_indices(50, 6, strategy)
            per_shard = [
                {seeds[i] for i in shard.node_indices}
                for shard in plan.shards
            ]
            union = set().union(*per_shard)
            assert len(union) == sum(len(s) for s in per_shard)

    def test_seed_plan_invariant_to_shard_count(self):
        # The seed of node i never depends on how the nodes are grouped.
        seeds = shard_node_seeds(9, 12, mode="spawn")
        for shards in (1, 3, 12):
            plan = partition_indices(12, shards)
            gathered = {}
            for shard in plan.shards:
                for i in shard.node_indices:
                    gathered[i] = seeds[i]
            assert [gathered[i] for i in range(12)] == seeds

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            shard_node_seeds(1, 3, mode="bogus")


class TestMapShards:
    def test_global_order_restored(self):
        items = list(range(10))
        for strategy in SHARD_STRATEGIES:
            plan = partition_indices(len(items), 3, strategy)
            assert run_sharded(_square, items, plan) == [
                x * x for x in items
            ]

    def test_per_shard_shape(self):
        plan = partition_indices(5, 2)
        per_shard = map_shards(_square, [1, 2, 3, 4, 5], plan)
        assert [len(r) for r in per_shard] == [3, 2]
        assert per_shard[0] == [1, 4, 9]
        assert per_shard[1] == [16, 25]

    def test_item_count_mismatch_rejected(self):
        plan = partition_indices(4, 2)
        with pytest.raises(ValueError):
            map_shards(_square, [1, 2, 3], plan)

    def test_failure_carries_global_index(self):
        items = [0, 1, 2, 3, 4]
        plan = partition_indices(len(items), 2, "round-robin")
        with pytest.raises(TaskError) as excinfo:
            run_sharded(_fail_on_three, items, plan)
        assert excinfo.value.index == 3
        assert excinfo.value.item == 3

    def test_parallel_workers_identical(self):
        items = list(range(8))
        plan = partition_indices(len(items), 4)
        serial = run_sharded(_square, items, plan, exec_cfg=ExecutionConfig(workers=1))
        parallel = run_sharded(
            _square, items, plan, exec_cfg=ExecutionConfig(workers=2)
        )
        assert serial == parallel


class TestGlobalOrder:
    def test_shape_validation(self):
        plan = partition_indices(4, 2)
        with pytest.raises(ValueError):
            plan.global_order([[1, 2]])  # one list missing
        with pytest.raises(ValueError):
            plan.global_order([[1], [2, 3]])  # first shard has 2 items

    def test_scatter(self):
        plan = ShardPlan(
            n_items=4,
            strategy="round-robin",
            shards=partition_indices(4, 2, "round-robin").shards,
        )
        assert plan.global_order([["a", "c"], ["b", "d"]]) == [
            "a",
            "b",
            "c",
            "d",
        ]
