"""Spawn-safe seeding: collision-freedom, determinism, legacy head."""

import numpy as np
import pytest

from repro.runtime.seeding import (
    node_seeds,
    replication_seeds,
    sequence_to_seed,
    spawn_seeds,
    spawn_sequences,
)


class TestSpawnSeeds:
    def test_deterministic_for_fixed_root(self):
        assert spawn_seeds(2010, 8) == spawn_seeds(2010, 8)

    def test_distinct_within_family(self):
        seeds = spawn_seeds(7, 64)
        assert len(set(seeds)) == 64

    def test_distinct_across_roots(self):
        assert set(spawn_seeds(1, 16)).isdisjoint(spawn_seeds(2, 16))

    def test_children_produce_distinct_streams(self):
        # The regression the runtime exists to prevent: replications
        # must see genuinely different randomness.
        a, b = (np.random.default_rng(s).random(16) for s in spawn_seeds(3, 2))
        assert not np.array_equal(a, b)

    def test_sequence_to_seed_is_128_bit(self):
        seq = np.random.SeedSequence(5)
        seed = sequence_to_seed(seq)
        assert 0 <= seed < 2**128
        assert seed == sequence_to_seed(np.random.SeedSequence(5))


class TestSpawnSequences:
    def test_matches_numpy_spawn_tree(self):
        ours = spawn_sequences(11, 3)
        theirs = np.random.SeedSequence(11).spawn(3)
        for a, b in zip(ours, theirs):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()


class TestReplicationSeeds:
    def test_single_replication_is_legacy_seed(self):
        assert replication_seeds(2010, 1) == [2010]

    def test_head_is_legacy_rest_are_spawned(self):
        seeds = replication_seeds(2010, 4)
        assert seeds[0] == 2010
        assert len(set(seeds)) == 4
        assert seeds[1:] == spawn_seeds(2010, 3)

    def test_rejects_zero_replications(self):
        import pytest

        with pytest.raises(ValueError):
            replication_seeds(1, 0)


class TestNodeSeeds:
    def test_legacy_matches_historical_scheme(self):
        assert node_seeds(2010, 4) == [2010, 2011, 2012, 2013]

    def test_legacy_requires_integer_seed(self):
        with pytest.raises(ValueError):
            node_seeds(None, 3)

    def test_spawn_mode_reproducible_and_entropy_ok(self):
        # Spawned seeds (the replication plans) need no integer root.
        a = spawn_seeds(7, 16)
        b = spawn_seeds(7, 16)
        assert a == b
        assert len(spawn_seeds(None, 4)) == 4

    #: The two per-item derivations: node sets and replication plans.
    DERIVATIONS = pytest.mark.parametrize(
        "derive", [node_seeds, spawn_seeds], ids=["legacy", "spawn"]
    )

    @DERIVATIONS
    def test_collision_free(self, derive):
        seeds = derive(42, 50)
        assert len(set(seeds)) == len(seeds)

    @DERIVATIONS
    def test_seed_depends_only_on_node_index(self, derive):
        # Item i's seed never depends on how many items follow it, so
        # no split of the set (and no adaptive prefix) can change it.
        seeds = derive(9, 12)
        for n in (1, 3, 12):
            assert derive(9, n) == seeds[:n]

    def test_invalid_mode(self):
        # Node seeds have one derivation; there is no mode to pick.
        with pytest.raises(TypeError):
            node_seeds(1, 3, mode="spawn")
        with pytest.raises(ValueError):
            node_seeds(1, -1)
