"""Tests for the Section V validation experiment driver."""

import pytest

from repro.experiments import (
    PAPER_TABLE_X,
    ValidationConfig,
    run_simple_node_validation,
)
from repro.experiments.validation import percent_difference
from repro.experiments.tables import (
    format_delta_table,
    format_optimum_summary,
    format_steady_state_table,
    format_validation_table,
)
from repro.experiments.deltas import delta_table
from repro.runtime.config import ExecutionConfig


@pytest.fixture(scope="module")
def result():
    return run_simple_node_validation(
        ValidationConfig(n_events=100, petri_horizon=5000.0, seed=7)
    )


class TestValidationRun:
    def test_percent_difference_close_to_paper(self, result):
        # Paper: 2.95 %. The gap is the calibrated unmodeled overhead,
        # so we land in the same band.
        assert 1.0 < result.percent_difference < 5.0

    def test_petri_underestimates_hardware(self, result):
        # The model misses the overhead draw, so it must predict less.
        assert result.petri_energy_j < result.hardware_energy_j

    def test_energies_positive(self, result):
        assert result.hardware_energy_j > 0
        assert result.petri_energy_j > 0

    def test_table_rows_structure(self, result):
        rows = result.table_rows()
        labels = [r[0] for r in rows]
        assert "Percent difference" in labels
        assert all(len(r) == 3 for r in rows)

    def test_paper_reference_values(self):
        assert PAPER_TABLE_X["percent_difference"] == 2.95
        assert PAPER_TABLE_X["petri_energy_j"] == 0.326519


class TestTableRendering:
    def test_validation_table(self, result):
        text = format_validation_table(result.table_rows())
        assert "Table X" in text
        assert "Percent difference" in text

    def test_delta_table_rendering(self):
        d = delta_table([1.0, 2.0], [1.5, 2.5], [1.1, 2.1])
        text = format_delta_table(d, 0.3, "V")
        assert "Table V" in text
        assert "Δ Sim-Markov" in text
        assert "RMSE" in text

    def test_steady_state_table(self):
        text = format_steady_state_table(
            {"Wait": 0.598, "Receiving": 0.001},
            paper_values={"Wait": 59.8, "Receiving": 0.098},
        )
        assert "Wait" in text
        assert "59.8" in text

    def test_optimum_summary(self):
        text = format_optimum_summary("closed", 0.00177, 2432.0, 0.35, 0.29)
        assert "0.00177" in text
        assert "35%" in text
        assert "29%" in text


class TestAdaptiveReplication:
    """ci_target validation: adaptive protocol re-runs, prefix-stable."""

    CFG = ValidationConfig(
        n_events=10, petri_horizon=500.0, petri_warmup=10.0, seed=7
    )

    def test_adaptive_is_prefix_of_fixed(self):
        fixed = run_simple_node_validation(
            self.CFG, exec_cfg=ExecutionConfig(replications=8)
        )
        adaptive = run_simple_node_validation(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=5.0, max_replications=8)
        )
        k = adaptive.run.replications
        assert [percent_difference(rep) for rep in adaptive.run.values] == [
            percent_difference(rep) for rep in fixed.run.values[:k]
        ]
        assert adaptive.run.converged is True

    def test_cap_hit_reports_unconverged(self):
        adaptive = run_simple_node_validation(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=1e-12, max_replications=3)
        )
        assert adaptive.run.converged is False
        assert adaptive.run.replications == 3

    def test_fixed_run_reports_no_convergence_fields(self):
        fixed = run_simple_node_validation(
            self.CFG, exec_cfg=ExecutionConfig(replications=2)
        )
        assert fixed.run.converged is None
        assert fixed.ci_target is None
