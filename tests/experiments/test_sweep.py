"""Tests for the sweep grids."""

from repro.experiments import (
    FIG4_TO_9_THRESHOLDS,
    FIG14_15_THRESHOLDS,
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
