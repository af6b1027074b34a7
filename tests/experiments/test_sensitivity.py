"""Tests for the sensitivity-analysis extension."""

import math

import numpy as np
import pytest

from repro.experiments import (
    cpu_breakeven_delay,
    cpu_energy_threshold_response,
    node_optimum_vs_rate,
)
from repro.experiments.sensitivity import _node_energy_task
from repro.runtime.config import ExecutionConfig, ResolvedExecution
from repro.runtime.seeding import replication_seeds


class TestCPUThresholdResponse:
    def test_monotone_increasing_at_tiny_delay(self):
        curve = cpu_energy_threshold_response(0.001, (0.001, 0.1, 0.5, 1.0))
        energies = [e for _, e in curve]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_monotone_decreasing_at_huge_delay(self):
        curve = cpu_energy_threshold_response(10.0, (0.001, 0.1, 0.5, 1.0))
        energies = [e for _, e in curve]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_returns_thresholds(self):
        ths = (0.01, 0.02)
        curve = cpu_energy_threshold_response(0.3, ths)
        assert tuple(t for t, _ in curve) == ths


class TestBreakevenDelay:
    def test_finite_and_positive_for_table_iii(self):
        d_star = cpu_breakeven_delay()
        assert 0.0 < d_star < 100.0

    def test_ordering_flips_at_breakeven(self):
        d_star = cpu_breakeven_delay()
        below = cpu_energy_threshold_response(d_star * 0.5, (1e-6, 5.0))
        above = cpu_energy_threshold_response(d_star * 2.0, (1e-6, 5.0))
        # below break-even: sleeping (tiny T) beats idling (large T)
        assert below[0][1] < below[1][1]
        # above break-even: idling wins
        assert above[0][1] > above[1][1]

    def test_cheap_wakeup_extends_breakeven(self):
        # Pricing the power-up state at standby power pushes the
        # break-even delay out, but not to infinity: jobs queueing
        # during a long wake-up still drain at active power afterwards.
        cheap = {"standby": 17.0, "idle": 88.0, "powerup": 17.0, "active": 193.0}
        assert cpu_breakeven_delay(powers_mw=cheap) > cpu_breakeven_delay()

    def test_sleep_never_pays_when_standby_expensive(self):
        powers = {"standby": 88.0, "idle": 88.0, "powerup": 193.0, "active": 193.0}
        assert cpu_breakeven_delay(powers_mw=powers) == 0.0

    def test_unstable_workload_rejected(self):
        with pytest.raises(ValueError):
            cpu_breakeven_delay(arrival_rate=20.0, service_rate=10.0)


class TestNodeOptimumVsRate:
    def test_optimum_pinned_above_radio_phase(self):
        result = node_optimum_vs_rate(
            rates=(0.5, 1.0, 2.0),
            thresholds=(1e-9, 0.00178, 0.01, 1.0, 100.0),
            horizon=120.0,
        )
        # across rates the optimum stays in the just-above-radio-phase
        # cluster — the crossover is intra-cycle, not inter-event
        for t_opt in result.optima:
            assert t_opt in (0.00178, 0.01)

    def test_savings_grow_as_events_get_rarer(self):
        result = node_optimum_vs_rate(
            rates=(2.0, 0.5),
            thresholds=(1e-9, 0.00178, 100.0),
            horizon=120.0,
        )
        # rarer events -> more idle time avoided -> larger saving vs never-down
        assert result.savings_vs_never[1] > result.savings_vs_never[0]

    def test_rows_shape(self):
        result = node_optimum_vs_rate(
            rates=(1.0,), thresholds=(1e-9, 0.01, 10.0), horizon=60.0
        )
        rows = result.rows()
        assert len(rows) == 1
        assert len(rows[0]) == 4


class TestAdaptiveReplication:
    """ci_target rate sweeps: per-cell adaptive replication control."""

    KW = dict(thresholds=(1e-9, 100.0), horizon=5.0, seed=3)

    def test_adaptive_cells_report_counts_and_flags(self):
        r = node_optimum_vs_rate(
            [1.0],
            exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=4),
            **self.KW,
        )
        assert len(r.runs) == 2
        assert all(2 <= run.replications <= 4 for run in r.runs)
        assert all(run.converged in (True, False) for run in r.runs)
        assert r.ci_target == 0.5

    def test_fixed_sweep_reports_no_convergence_fields(self):
        r = node_optimum_vs_rate([1.0], **self.KW)
        assert [run.replications for run in r.runs] == [1, 1]
        assert [run.converged for run in r.runs] == [None, None]

    def test_fixed_replications_run_per_cell(self):
        pool = RecordingBackend()
        r = node_optimum_vs_rate(
            [1.0],
            thresholds=(100.0,),
            horizon=5.0,
            seed=3,
            exec_cfg=ResolvedExecution(replications=3, backend=pool),
        )
        seeds = replication_seeds(3, 3)
        assert pool.items == [(1.0, 100.0, "closed", 5.0, s) for s in seeds]
        energies = [_node_energy_task(item) for item in pool.items]
        assert r.optimum_energies_j == [float(np.mean(energies))]

    def test_replications_floor_the_adaptive_cells(self):
        r = node_optimum_vs_rate(
            [1.0],
            exec_cfg=ExecutionConfig(
                replications=3, ci_target=1e6, max_replications=8
            ),
            **self.KW,
        )
        assert [run.replications for run in r.runs] == [3, 3]
        assert all(run.converged for run in r.runs)


class RecordingBackend:
    """An in-process backend that records every item it evaluates."""

    parallelism = 1

    def __init__(self):
        self.items = []

    def map(self, fn, items, chunk_size=None):
        self.items.extend(items)
        return [fn(item) for item in items]
