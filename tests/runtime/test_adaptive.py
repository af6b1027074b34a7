"""Adaptive replication control: stopping rule, prefix reproducibility.

The acceptance contract: the replications an adaptive run executes are
a bit-identical prefix of the fixed ``max_replications`` run at the
same seed, for every ``workers`` setting.
"""

import numpy as np
import pytest

from repro.runtime import (
    AdaptiveSettings,
    ReplicatedValue,
    map_sweep,
    run_adaptive_rounds,
)
from repro.runtime.config import ExecutionConfig, ResolvedExecution


def seeded_noise(threshold, seed):
    """Stochastic evaluate whose noise scales with the threshold."""
    return 1.0 + threshold * float(
        np.random.default_rng(seed).normal(0.0, 1.0)
    )


def _identity(task):
    return task


class TestAdaptiveSettings:
    def test_round_size_defaults_to_min_replications(self):
        s = AdaptiveSettings(ci_target=0.1, min_replications=3)
        assert s.round_size == 3
        assert AdaptiveSettings(ci_target=0.1, batch_size=5).round_size == 5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdaptiveSettings(ci_target=0.0)
        with pytest.raises(ValueError):
            AdaptiveSettings(ci_target=0.1, min_replications=1)
        with pytest.raises(ValueError):
            AdaptiveSettings(ci_target=0.1, min_replications=8, max_replications=4)
        with pytest.raises(ValueError):
            AdaptiveSettings(ci_target=0.1, batch_size=0)
        with pytest.raises(ValueError):
            AdaptiveSettings(ci_target=0.1, confidence=1.0)


class TestRunAdaptiveRounds:
    def test_constant_metric_stops_at_min_replications(self):
        runs = run_adaptive_rounds(
            _identity,
            lambda i, r: 2.5,
            3,
            AdaptiveSettings(ci_target=0.05, min_replications=2),
        )
        assert [run.replications for run in runs] == [2, 2, 2]
        assert all(run.converged for run in runs)

    def test_constant_zero_metric_converges(self):
        # Regression tied to relative_half_width(): a 0 ± 0 interval is
        # perfectly precise and must satisfy the stopping rule, not
        # spin to max_replications on an inf relative width.
        [run] = run_adaptive_rounds(
            _identity,
            lambda i, r: 0.0,
            1,
            AdaptiveSettings(ci_target=0.05, max_replications=8),
        )
        assert run.converged
        assert run.replications == 2

    def test_never_converging_point_hits_max(self):
        [run] = run_adaptive_rounds(
            _identity,
            lambda i, r: float(r),  # linear drift: CI never tightens
            1,
            AdaptiveSettings(ci_target=1e-9, min_replications=2, max_replications=7),
        )
        assert not run.converged
        assert run.replications == 7

    def test_round_growth_uses_batch_size(self):
        calls: list[int] = []

        def task_for(i, r):
            calls.append(r)
            return float(r)

        run_adaptive_rounds(
            _identity,
            task_for,
            1,
            AdaptiveSettings(
                ci_target=1e-9, min_replications=2, max_replications=9, batch_size=3
            ),
        )
        # Rounds: 2, then +3, +3, then +1 capped at max.
        assert calls == list(range(9))

    def test_multi_metric_requires_all_to_converge(self):
        # Metric 0 is constant (instantly tight); metric 1 drifts.
        [run] = run_adaptive_rounds(
            _identity,
            lambda i, r: (1.0, float(r)),
            1,
            AdaptiveSettings(ci_target=0.05, max_replications=6),
            metrics=lambda v: v,
        )
        assert not run.converged
        assert run.replications == 6

    def test_workers_do_not_change_decisions(self):
        settings = AdaptiveSettings(ci_target=0.5, max_replications=8)
        serial = run_adaptive_rounds(
            seeded_eval_task,
            lambda i, r: (0.5 * (i + 1), 1000 * i + r),
            3,
            settings,
        )
        parallel = run_adaptive_rounds(
            seeded_eval_task,
            lambda i, r: (0.5 * (i + 1), 1000 * i + r),
            3,
            settings,
            exec_cfg=ResolvedExecution(workers=2),
        )
        assert [run.values for run in serial] == [run.values for run in parallel]
        assert [run.converged for run in serial] == [
            run.converged for run in parallel
        ]


def seeded_eval_task(task):
    """Module-level (picklable) wrapper for multi-process rounds."""
    threshold, seed = task
    return seeded_noise(threshold, seed)


class TestMapSweepAdaptive:
    GRID = [0.01, 0.2, 2.0]

    def test_adaptive_is_prefix_of_fixed_run(self):
        fixed = map_sweep(
            seeded_noise, self.GRID, seed=11, exec_cfg=ExecutionConfig(replications=16)
        )
        adaptive = map_sweep(
            seeded_noise,
            self.GRID,
            seed=11,
            exec_cfg=ExecutionConfig(ci_target=0.2, max_replications=16),
        )
        for f, a in zip(fixed, adaptive):
            k = a.value.replications
            assert a.value.values == f.value.values[:k]
            assert a.value.seeds == f.value.seeds[:k]

    def test_adaptive_independent_of_workers(self):
        adaptive = ExecutionConfig(ci_target=0.2, max_replications=16)
        serial = map_sweep(seeded_noise, self.GRID, seed=11, exec_cfg=adaptive)
        parallel = map_sweep(
            seeded_noise,
            self.GRID,
            seed=11,
            exec_cfg=adaptive.with_overrides(workers=3),
        )
        assert serial == parallel  # frozen dataclasses: bit-identical

    def test_noisier_points_replicate_more(self):
        points = map_sweep(
            seeded_noise,
            [0.01, 2.0],
            seed=11,
            exec_cfg=ExecutionConfig(ci_target=0.2, max_replications=32),
        )
        quiet, noisy = points
        assert quiet.value.converged
        assert quiet.value.replications < noisy.value.replications

    def test_max_replications_cap(self):
        [point] = map_sweep(
            seeded_noise,
            [5.0],
            seed=11,
            exec_cfg=ExecutionConfig(ci_target=1e-9, max_replications=5),
        )
        assert point.value.replications == 5
        assert point.value.converged is False

    def test_replications_acts_as_min_floor(self):
        [point] = map_sweep(
            seeded_noise,
            [0.001],
            seed=11,
            exec_cfg=ExecutionConfig(
                replications=6, ci_target=0.5, max_replications=16
            ),
        )
        assert point.value.replications >= 6

    def test_always_returns_replicated_values_with_flag(self):
        points = map_sweep(
            seeded_noise,
            self.GRID,
            seed=11,
            exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=8),
        )
        for p in points:
            assert isinstance(p.value, ReplicatedValue)
            assert p.value.converged in (True, False)
            assert len(p.value.seeds) == p.value.replications

    def test_fixed_sweeps_leave_converged_unset(self):
        [point] = map_sweep(
            seeded_noise, [0.5], seed=11, exec_cfg=ExecutionConfig(replications=3)
        )
        assert point.value.converged is None
