"""Tests for the Figs. 14/15 node-energy sweep driver (scaled down)."""

import pytest

from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.runtime.config import ExecutionConfig

SHORT_GRID = (1e-9, 0.0018, 0.01, 1.0, 50.0)


def short_config(workload="closed"):
    return NodeSweepConfig(
        workload=workload, horizon=150.0, thresholds=SHORT_GRID, seed=5
    )


class TestDriver:
    def test_result_shape(self):
        r = run_node_energy_sweep(short_config())
        assert r.thresholds == SHORT_GRID
        assert len(r.runs) == len(SHORT_GRID)
        assert len(r.breakdowns) == len(SHORT_GRID)
        assert len(r.total_energy_j) == len(SHORT_GRID)

    def test_optimum_detection(self):
        r = run_node_energy_sweep(short_config())
        t_opt, e_opt = r.optimum()
        assert t_opt in SHORT_GRID
        assert e_opt == min(r.total_energy_j)

    def test_extreme_accessors(self):
        r = run_node_energy_sweep(short_config())
        assert r.immediate_powerdown_energy() == r.total_energy_j[0]
        assert r.never_powerdown_energy() == r.total_energy_j[-1]

    def test_savings_fractions_in_range(self):
        r = run_node_energy_sweep(short_config())
        assert 0.0 <= r.savings_vs_immediate() < 1.0
        assert 0.0 <= r.savings_vs_never() < 1.0

    def test_series_accessor(self):
        r = run_node_energy_sweep(short_config())
        wake = r.series("cpu_wakeup")
        assert len(wake) == len(SHORT_GRID)
        # wake-up energy shrinks as the threshold grows
        assert wake[0] > wake[-1]

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            NodeSweepConfig(workload="bogus")


class TestScaledPaperShape:
    def test_closed_optimum_at_radio_phase_boundary(self):
        r = run_node_energy_sweep(short_config("closed"))
        t_opt, _ = r.optimum()
        # the interior grid points (0.0018 or 0.01) must win
        assert t_opt in (0.0018, 0.01)

    def test_open_model_same_ushape(self):
        r = run_node_energy_sweep(short_config("open"))
        t_opt, _ = r.optimum()
        assert t_opt in (0.0018, 0.01)
        assert r.savings_vs_immediate() > 0.1


class TestAdaptiveReplication:
    """ci_target sweeps: reproducible prefixes of the fixed-count run."""

    CFG = NodeSweepConfig(
        workload="closed", horizon=5.0, thresholds=(1e-9, 0.01), seed=5
    )

    def test_adaptive_is_prefix_of_fixed(self):
        fixed = run_node_energy_sweep(
            self.CFG, exec_cfg=ExecutionConfig(replications=6)
        )
        adaptive = run_node_energy_sweep(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=0.3, max_replications=6)
        )
        for fixed_reps, adaptive_reps in zip(
            fixed.replicates, adaptive.replicates
        ):
            k = len(adaptive_reps)
            assert [r.total_energy_j for r in adaptive_reps] == [
                r.total_energy_j for r in fixed_reps[:k]
            ]
        assert adaptive.ci_target == 0.3
        assert all(run.converged is not None for run in adaptive.runs)
        assert all(2 <= run.replications <= 6 for run in adaptive.runs)

    def test_replication0_series_unchanged(self):
        single = run_node_energy_sweep(self.CFG)
        adaptive = run_node_energy_sweep(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=0.3, max_replications=4)
        )
        assert [reps[0].total_energy_j for reps in adaptive.replicates] == [
            reps[0].total_energy_j for reps in single.replicates
        ]

    def test_fixed_sweep_reports_no_convergence_fields(self):
        fixed = run_node_energy_sweep(
            self.CFG, exec_cfg=ExecutionConfig(replications=2)
        )
        assert [run.converged for run in fixed.runs] == [None, None]
        assert fixed.ci_target is None
        assert [run.replications for run in fixed.runs] == [2, 2]
