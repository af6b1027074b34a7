"""Adaptive replication control: stopping rule, prefix reproducibility.

The acceptance contract: the replications an adaptive run executes are
a bit-identical prefix of the fixed ``max_replications`` run at the
same seed, for every ``workers`` setting.
"""

import numpy as np
import pytest

from repro.runtime import SerialBackend, run_replications
from repro.runtime.config import ExecutionConfig, ResolvedExecution


def seeded_noise(threshold, seed):
    """Stochastic evaluate whose noise scales with the threshold."""
    return 1.0 + threshold * float(
        np.random.default_rng(seed).normal(0.0, 1.0)
    )


def _identity(task):
    return task


class RoundRecorder(SerialBackend):
    """A serial backend that records the size of every round's map."""

    def __init__(self):
        self.rounds = []

    def map(self, fn, items, chunk_size=None):
        items = list(items)
        self.rounds.append(len(items))
        return super().map(fn, items, chunk_size)


class TestAdaptiveSettings:
    """The stopping rule is read from ``rx``; its checks are the config's."""

    def test_round_size_defaults_to_min_replications(self):
        # The first round is the floor: the fixed count, or at least 2
        # under ci_target (one replication has an infinite half-width).
        for policy, first_round in (
            ({"replications": 3}, 3),
            ({"ci_target": 0.1}, 2),
            ({"ci_target": 0.1, "replications": 3}, 3),
        ):
            pool = RoundRecorder()
            run_replications(
                _identity,
                lambda i, r: 2.5,
                1,
                ResolvedExecution(backend=pool, **policy),
            )
            assert pool.rounds == [first_round]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ResolvedExecution(ci_target=0.0)
        with pytest.raises(ValueError):
            ResolvedExecution(ci_target=0.1, replications=8, max_replications=4)
        with pytest.raises(ValueError):
            # The floor of 2 cannot fit below a cap of 1.
            ResolvedExecution(ci_target=0.1, max_replications=1)


class TestRunAdaptiveRounds:
    def test_constant_metric_stops_at_min_replications(self):
        runs = run_replications(
            _identity,
            lambda i, r: 2.5,
            3,
            ResolvedExecution(ci_target=0.05, replications=2),
        )
        assert [run.replications for run in runs] == [2, 2, 2]
        assert all(run.converged for run in runs)

    def test_constant_zero_metric_converges(self):
        # Regression tied to relative_half_width(): a 0 ± 0 interval is
        # perfectly precise and must satisfy the stopping rule, not
        # spin to max_replications on an inf relative width.
        [run] = run_replications(
            _identity,
            lambda i, r: 0.0,
            1,
            ResolvedExecution(ci_target=0.05, max_replications=8),
        )
        assert run.converged
        assert run.replications == 2

    def test_never_converging_point_hits_max(self):
        [run] = run_replications(
            _identity,
            lambda i, r: float(r),  # linear drift: CI never tightens
            1,
            ResolvedExecution(ci_target=1e-9, replications=2, max_replications=7),
        )
        assert not run.converged
        assert run.replications == 7

    def test_each_round_adds_the_floor(self):
        calls: list[int] = []

        def task_for(i, r):
            calls.append(r)
            return float(r)

        pool = RoundRecorder()
        run_replications(
            _identity,
            task_for,
            1,
            ResolvedExecution(
                backend=pool, ci_target=1e-9, replications=3, max_replications=10
            ),
        )
        # Rounds: 3, then +3, +3, then +1 capped at max.
        assert calls == list(range(10))
        assert pool.rounds == [3, 3, 3, 1]

    def test_multi_metric_requires_all_to_converge(self):
        # Metric 0 is constant (instantly tight); metric 1 drifts.
        [run] = run_replications(
            _identity,
            lambda i, r: (1.0, float(r)),
            1,
            ResolvedExecution(ci_target=0.05, max_replications=6),
            metrics=lambda v: v,
        )
        assert not run.converged
        assert run.replications == 6

    def test_workers_do_not_change_decisions(self):
        policy = dict(ci_target=0.5, max_replications=8)
        serial = run_replications(
            seeded_eval_task,
            lambda i, r: (0.5 * (i + 1), 1000 * i + r),
            3,
            ResolvedExecution(**policy),
        )
        parallel = run_replications(
            seeded_eval_task,
            lambda i, r: (0.5 * (i + 1), 1000 * i + r),
            3,
            ResolvedExecution(workers=2, **policy),
        )
        assert [run.values for run in serial] == [run.values for run in parallel]
        assert [run.converged for run in serial] == [
            run.converged for run in parallel
        ]


def seeded_eval_task(task):
    """Module-level (picklable) wrapper for multi-process rounds."""
    threshold, seed = task
    return seeded_noise(threshold, seed)


def sweep(grid, **policy):
    """Run ``seeded_noise`` over ``grid`` with one seed per (point, r)."""
    return run_replications(
        seeded_eval_task,
        lambda i, r: (grid[i], 1000 * i + r),
        len(grid),
        ResolvedExecution(**policy),
    )


class TestMapSweepAdaptive:
    """Adaptive replication over a grid of points via ``run_replications``."""

    GRID = [0.01, 0.2, 2.0]

    def test_adaptive_is_prefix_of_fixed_run(self):
        fixed = sweep(self.GRID, replications=16)
        adaptive = sweep(self.GRID, ci_target=0.2, max_replications=16)
        assert min(a.replications for a in adaptive) < 16
        for f, a in zip(fixed, adaptive):
            assert a.values == f.values[: a.replications]

    def test_adaptive_independent_of_workers(self):
        policy = dict(ci_target=0.2, max_replications=16)
        serial = sweep(self.GRID, **policy)
        parallel = sweep(self.GRID, workers=3, **policy)
        assert [run.values for run in serial] == [run.values for run in parallel]
        assert [run.converged for run in serial] == [
            run.converged for run in parallel
        ]

    def test_noisier_points_replicate_more(self):
        quiet, noisy = sweep([0.01, 2.0], ci_target=0.2, max_replications=32)
        assert quiet.converged
        assert quiet.replications < noisy.replications

    def test_max_replications_cap(self):
        [run] = sweep([5.0], ci_target=1e-9, max_replications=5)
        assert run.replications == 5
        assert len(run.values) == 5
        assert run.converged is False

    def test_replications_acts_as_min_floor(self):
        [run] = sweep([0.001], replications=6, ci_target=0.5, max_replications=16)
        assert run.replications >= 6
        assert run.converged is True

    def test_fixed_sweeps_leave_converged_unset(self):
        [fixed] = sweep([0.5], replications=3)
        assert fixed.replications == 3
        assert fixed.converged is None


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
