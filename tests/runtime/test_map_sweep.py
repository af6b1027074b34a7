"""map_sweep determinism: workers must never change results."""

import numpy as np
import pytest

from repro.experiments.sweep import SweepPoint
from repro.runtime import ReplicatedValue, map_sweep
from repro.runtime.config import ExecutionConfig


def seeded_noise(threshold, seed):
    """A cheap stochastic evaluate: threshold + seeded noise."""
    return threshold + float(np.random.default_rng(seed).normal(0.0, 0.5))


class TestDeterminism:
    def test_workers_1_vs_4_identical_at_fixed_seed(self):
        grid = [0.001, 0.01, 0.1, 1.0, 10.0]
        serial = map_sweep(
            seeded_noise, grid, seed=2010, exec_cfg=ExecutionConfig(workers=1)
        )
        parallel = map_sweep(
            seeded_noise, grid, seed=2010, exec_cfg=ExecutionConfig(workers=4)
        )
        assert [p.threshold for p in serial] == grid
        assert serial == parallel  # SweepPoint is a frozen dataclass

    def test_workers_1_vs_4_identical_with_replications(self):
        grid = [0.1, 1.0]
        serial = map_sweep(
            seeded_noise,
            grid,
            seed=42,
            exec_cfg=ExecutionConfig(workers=1, replications=5),
        )
        parallel = map_sweep(
            seeded_noise,
            grid,
            seed=42,
            exec_cfg=ExecutionConfig(workers=4, replications=5),
        )
        assert serial == parallel

    def test_same_seed_reproduces(self):
        a = map_sweep(seeded_noise, [0.5], seed=1)
        b = map_sweep(seeded_noise, [0.5], seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = map_sweep(seeded_noise, [0.5], seed=1)
        b = map_sweep(seeded_noise, [0.5], seed=2)
        assert a != b


class TestReplications:
    def test_single_replication_returns_bare_value(self):
        [point] = map_sweep(seeded_noise, [0.5], seed=3)
        assert isinstance(point, SweepPoint)
        assert isinstance(point.value, float)

    def test_multi_replication_returns_replicated_value(self):
        [point] = map_sweep(
            seeded_noise, [0.5], seed=3, exec_cfg=ExecutionConfig(replications=6)
        )
        value = point.value
        assert isinstance(value, ReplicatedValue)
        assert len(value.values) == 6
        assert len(set(value.seeds)) == 6

    def test_replication_streams_are_distinct(self):
        [point] = map_sweep(
            seeded_noise, [0.5], seed=3, exec_cfg=ExecutionConfig(replications=8)
        )
        assert len(set(point.value.values)) == 8

    def test_interval_covers_true_mean(self):
        [point] = map_sweep(
            seeded_noise, [0.5], seed=3, exec_cfg=ExecutionConfig(replications=64)
        )
        ci = point.value.interval()
        assert ci.low < 0.5 < ci.high
        assert point.value.mean() == pytest.approx(ci.mean)

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            map_sweep(seeded_noise, [0.5], exec_cfg=ExecutionConfig(replications=0))


class TestExperimentDrivers:
    """End-to-end: the rewired drivers are worker-count invariant."""

    @pytest.mark.slow
    def test_node_sweep_workers_invariant(self):
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep

        cfg = NodeSweepConfig(horizon=5.0, thresholds=(0.001, 0.00178, 0.1))
        serial = run_node_energy_sweep(cfg, exec_cfg=ExecutionConfig(workers=1))
        parallel = run_node_energy_sweep(cfg, exec_cfg=ExecutionConfig(workers=4))
        assert serial.total_energy_j == parallel.total_energy_j
        assert serial.optimum() == parallel.optimum()

    @pytest.mark.slow
    def test_network_lifetime_workers_invariant(self):
        from repro.models.network import LineTopology, SensorNetworkModel

        model = SensorNetworkModel(LineTopology(3))
        serial = model.simulate(5.0, seed=9, exec_cfg=ExecutionConfig(workers=1))
        parallel = model.simulate(5.0, seed=9, exec_cfg=ExecutionConfig(workers=2))
        assert [n.energy_j for n in serial.nodes] == [
            n.energy_j for n in parallel.nodes
        ]
        assert serial.network_lifetime_days == parallel.network_lifetime_days
