"""Tests for the Figs. 4–9 comparison driver (scaled-down horizons)."""

import pytest

from repro.des import CPUStates
from repro.experiments import (
    CPUComparisonConfig,
    run_cpu_comparison,
)
from repro.runtime.config import ExecutionConfig

SHORT = CPUComparisonConfig(horizon=300.0, thresholds=(0.001, 0.3, 1.0))


class TestDriver:
    def test_result_shape(self):
        r = run_cpu_comparison(0.001, SHORT)
        assert r.thresholds == (0.001, 0.3, 1.0)
        for est in ("simulation", "markov", "petri"):
            assert len(r.energy_j[est]) == 3
            for state in CPUStates.ALL:
                assert len(r.fractions[est][state]) == 3

    def test_fractions_are_probabilities(self):
        r = run_cpu_comparison(0.3, SHORT)
        for est, per_state in r.fractions.items():
            for state, series in per_state.items():
                assert all(0.0 <= v <= 1.0 for v in series), (est, state)

    def test_energy_positive(self):
        r = run_cpu_comparison(0.3, SHORT)
        for est in r.energy_j:
            assert all(e > 0 for e in r.energy_j[est])

    def test_delta_energy_columns(self):
        r = run_cpu_comparison(0.001, SHORT)
        d = r.delta_energy()
        assert set(d) == {"sim_markov", "sim_petri", "markov_petri"}

    def test_state_series_accessor(self):
        r = run_cpu_comparison(0.001, SHORT)
        assert r.state_series("markov", "idle") == r.fractions["markov"]["idle"]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CPUComparisonConfig(horizon=10.0, warmup=10.0)


class TestScaledPaperShape:
    """Qualitative Fig. 4/7 assertions at reduced horizon."""

    def test_idle_increases_with_threshold(self):
        r = run_cpu_comparison(0.001, SHORT)
        for est in ("simulation", "markov", "petri"):
            idle = r.fractions[est]["idle"]
            assert idle[0] < idle[-1], est

    def test_standby_decreases_with_threshold(self):
        r = run_cpu_comparison(0.001, SHORT)
        for est in ("simulation", "markov", "petri"):
            sb = r.fractions[est]["standby"]
            assert sb[0] > sb[-1], est

    def test_active_roughly_constant(self):
        r = run_cpu_comparison(0.001, SHORT)
        act = r.fractions["simulation"]["active"]
        assert max(act) - min(act) < 0.08

    def test_energy_increases_with_threshold_small_pud(self):
        # Fig. 7: with cheap wake-ups, idling longer only wastes energy.
        r = run_cpu_comparison(0.001, SHORT)
        for est in ("simulation", "markov", "petri"):
            e = r.energy_j[est]
            assert e[-1] > e[0], est

    def test_energy_decreases_with_threshold_huge_pud(self):
        # Fig. 9: with a 10 s wake-up, avoiding sleep saves energy.
        r = run_cpu_comparison(10.0, SHORT)
        for est in ("simulation", "petri"):
            e = r.energy_j[est]
            assert e[-1] < e[0], est


class TestAdaptiveReplication:
    """ci_target comparisons: adaptive runs are prefixes of fixed ones."""

    CFG = CPUComparisonConfig(horizon=60.0, thresholds=(0.001, 1.0))

    def test_cap_run_matches_fixed_run_bit_for_bit(self):
        # An impossible target forces every point to max_replications,
        # at which length the adaptive run IS the fixed run.
        fixed = run_cpu_comparison(
            0.3, self.CFG, exec_cfg=ExecutionConfig(replications=3)
        )
        adaptive = run_cpu_comparison(
            0.3, self.CFG, exec_cfg=ExecutionConfig(ci_target=1e-9, max_replications=3)
        )
        assert adaptive.energy_j == fixed.energy_j
        assert adaptive.fractions == fixed.fractions
        assert [run.converged for run in adaptive.runs] == [False, False]
        assert [run.replications for run in adaptive.runs] == [3, 3]

    def test_adaptive_reports_energy_ci_and_flags(self):
        adaptive = run_cpu_comparison(
            0.3, self.CFG, exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=4)
        )
        assert len(adaptive.runs) == 2
        assert all(run.replications >= 2 for run in adaptive.runs)
        assert all(run.converged is not None for run in adaptive.runs)
        for est in ("simulation", "petri"):
            for run, mean in zip(adaptive.runs, adaptive.energy_j[est]):
                ci = run.interval(lambda out, est=est: out[est][1])
                assert ci.batches == run.replications
                assert ci.mean == pytest.approx(mean)
        # The analytic Markov model is solved once, on replication 0.
        for run in adaptive.runs:
            assert "markov" in run.values[0]
            assert all("markov" not in out for out in run.values[1:])

    def test_fixed_run_reports_no_convergence_fields(self):
        fixed = run_cpu_comparison(
            0.3, self.CFG, exec_cfg=ExecutionConfig(replications=2)
        )
        assert [run.converged for run in fixed.runs] == [None, None]
        assert fixed.ci_target is None
