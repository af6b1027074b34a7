"""Tests for the sweep grids."""

import pytest

from repro.experiments import (
    FIG4_TO_9_THRESHOLDS,
    FIG14_15_THRESHOLDS,
    linear_thresholds,
)


class TestGrids:
    def test_fig4_grid_matches_paper_axis(self):
        assert FIG4_TO_9_THRESHOLDS[0] == 0.001
        assert FIG4_TO_9_THRESHOLDS[-1] == 1.0
        assert len(FIG4_TO_9_THRESHOLDS) == 11

    def test_fig14_grid_contains_the_optimum_cluster(self):
        for v in (0.0017, 0.00176, 0.00177, 0.00178, 0.0019):
            assert v in FIG14_15_THRESHOLDS
        assert FIG14_15_THRESHOLDS == tuple(sorted(FIG14_15_THRESHOLDS))

    def test_linear_thresholds(self):
        ts = linear_thresholds(0.1, 1.0, 10)
        assert len(ts) == 10
        assert ts[0] == pytest.approx(0.1)
        assert ts[-1] == pytest.approx(1.0)

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            linear_thresholds(1.0, 0.5)
        with pytest.raises(ValueError):
            linear_thresholds(0.1, 1.0, 1)
