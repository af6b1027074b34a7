"""The threshold grids of the paper's sweeps.

* Figs. 4–9 sweep ``Power_Down_Threshold`` over [0.001, 1] s;
* Figs. 14–15 use a hand-picked 23-point grid that clusters around the
  interesting crossovers (1 ns … 10 s, dense near 0.00177 s) — we
  reproduce that grid verbatim so the regenerated series has the same
  x-axis as the figures;
* network-lifetime sweeps use a coarse grid over the same regimes.
"""

from __future__ import annotations

__all__ = [
    "FIG4_TO_9_THRESHOLDS",
    "FIG14_15_THRESHOLDS",
    "NETWORK_THRESHOLDS",
]

#: Figs. 4–9 x-axis: 0.001 then 0.1..1.0 in 0.1 steps (11 points).
FIG4_TO_9_THRESHOLDS: tuple[float, ...] = (
    0.001,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0,
)

#: Figs. 14–15 x-axis, copied from the figures' tick labels (23 points).
FIG14_15_THRESHOLDS: tuple[float, ...] = (
    1.00e-09,
    9.00e-07,
    1.00e-06,
    1.10e-06,
    1.90e-06,
    9.00e-06,
    0.0017,
    0.00176,
    0.00177,
    0.00178,
    0.0019,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    0.9,
    1.0,
    1.00177,
    1.002,
    1.1,
    5.0,
    10.0,
)

#: Default grid for network-lifetime sweeps: the Figs. 14/15 regimes
#: (immediate power-down, the 0.00177 s radio-phase crossover, the flat
#: basin, never-power-down) at network-sized cost — every point is a
#: full multi-node simulation, so the grid is deliberately coarse.
NETWORK_THRESHOLDS: tuple[float, ...] = (
    1.00e-09,
    0.00178,
    0.01,
    0.1,
    1.0,
    100.0,
)
