"""The replication aggregator against closed-form t-intervals."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.statistics import (
    ConfidenceInterval,
    _t_critical,
    replication_interval,
)


class TestReplicationInterval:
    def test_half_width_matches_closed_form(self):
        # Known data: mean 2, sample variance 2.5 -> s = sqrt(2.5).
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        n = len(values)
        s = math.sqrt(2.5)
        for confidence in (0.90, 0.95, 0.99):
            ci = replication_interval(values, confidence)
            tcrit = stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
            assert ci.mean == pytest.approx(2.0)
            assert ci.half_width == pytest.approx(tcrit * s / math.sqrt(n))
            assert ci.batches == n
            assert ci.confidence == confidence

    def test_known_variance_synthetic_data(self):
        # sigma = 3 normal data: the sample half-width should approach
        # the closed-form t * s / sqrt(n) computed from the sample.
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 3.0, size=40)
        ci = replication_interval(values, 0.95)
        s = float(np.std(values, ddof=1))
        expected = stats.t.ppf(0.975, df=39) * s / math.sqrt(40)
        assert ci.half_width == pytest.approx(expected)
        assert ci.contains(float(np.mean(values)))

    def test_single_value_gives_infinite_half_width(self):
        ci = replication_interval([4.2])
        assert ci.mean == pytest.approx(4.2)
        assert math.isinf(ci.half_width)
        assert ci.batches == 1

    def test_zero_variance_gives_zero_half_width(self):
        ci = replication_interval([1.5, 1.5, 1.5])
        assert ci.half_width == pytest.approx(0.0)
        assert ci.low == ci.high == pytest.approx(1.5)

    def test_returns_confidence_interval_type(self):
        assert isinstance(replication_interval([1.0, 2.0]), ConfidenceInterval)

    def test_rejects_empty_and_bad_confidence(self):
        with pytest.raises(ValueError):
            replication_interval([])
        with pytest.raises(ValueError):
            replication_interval([1.0, 2.0], confidence=1.0)

    def test_coverage_simulation(self):
        # ~95% of intervals from normal replications should contain the
        # true mean; with 200 trials the failure probability of the
        # bound below is negligible.
        rng = np.random.default_rng(123)
        hits = sum(
            replication_interval(rng.normal(5.0, 1.0, size=10)).contains(5.0)
            for _ in range(200)
        )
        assert hits >= 175


class TestTCritical:
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_bit_equal_to_scipy_stats_ppf(self, confidence):
        # stdtrit is the function t.ppf calls, so equality is exact, not
        # approximate: every printed interval keeps its last digit.
        for df in [*range(1, 401), 10**3, 10**5, 10**6]:
            expected = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
            assert _t_critical(confidence, df) == expected, (confidence, df)
