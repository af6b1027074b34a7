"""Figs. 14/15 driver: node-energy sweeps over ``Power_Down_Threshold``.

For each grid point the full node model (closed or open workload) is
simulated for 15 minutes and the eight-component energy breakdown is
recorded; the driver then locates the optimum threshold and computes
the paper's two savings ratios (vs power-down-immediately and vs
never-power-down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..energy.breakdown import EnergyBreakdown
from ..models.wsn_node import (
    NodeParameters,
    WSNNodeResult,
    simulate_node_ensemble_task,
    simulate_node_task,
)
from .sweep import FIG14_15_THRESHOLDS

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun

__all__ = [
    "NodeSweepConfig",
    "NodeSweepResult",
    "SweepSummary",
    "run_node_energy_sweep",
]

#: The paper's evaluation horizon: "a time interval of 15 minutes".
PAPER_NODE_HORIZON_S = 900.0


@dataclass(frozen=True)
class NodeSweepConfig:
    """Sweep configuration (paper defaults)."""

    workload: str = "closed"
    horizon: float = PAPER_NODE_HORIZON_S
    seed: int = 2010
    thresholds: tuple[float, ...] = FIG14_15_THRESHOLDS
    params: NodeParameters = NodeParameters()

    def __post_init__(self) -> None:
        if self.workload not in ("closed", "open"):
            raise ValueError(
                f"workload must be 'closed' or 'open', got {self.workload!r}"
            )
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


class SweepSummary(NamedTuple):
    """The headline numbers of a Figs. 14/15 sweep."""

    threshold: float  # of the minimum-energy point
    energy_j: float  # at that point
    savings_vs_immediate: float
    savings_vs_never: float


@dataclass
class NodeSweepResult:
    """The full Fig. 14/15 data set for one workload kind.

    ``runs`` holds one :class:`~repro.runtime.adaptive.AdaptivePointRun`
    per threshold: every replication's :class:`WSNNodeResult`, and under
    adaptive replication control (``ci_target``) whether the point met
    the target before ``max_replications``.  The stacked breakdowns are
    replication 0 (the legacy single-run series); the energy series is
    the across-replication mean.
    """

    workload: str
    thresholds: tuple[float, ...]
    runs: list[AdaptivePointRun]
    ci_target: float | None = None

    @property
    def replicates(self) -> list[list[WSNNodeResult]]:
        """Every replication's node result, per grid point."""
        return [run.values for run in self.runs]

    @property
    def breakdowns(self) -> list[EnergyBreakdown]:
        """Per-point component breakdowns (the stacked series, rep 0)."""
        return [run.values[0].breakdown for run in self.runs]

    @property
    def total_energy_j(self) -> list[float]:
        """Per-point total node energy (across-replication mean)."""
        return [
            float(np.mean([r.total_energy_j for r in reps]))
            for reps in self.replicates
        ]

    def summary(self) -> SweepSummary:
        """The optimum and both savings, from one read of the point means."""
        energies = self.total_energy_j
        points = range(len(energies))
        best = min(points, key=energies.__getitem__)
        low = min(points, key=self.thresholds.__getitem__)
        high = max(points, key=self.thresholds.__getitem__)
        opt = energies[best]

        def saving(base: float) -> float:
            return (base - opt) / base if base > 0 else 0.0

        return SweepSummary(
            threshold=self.thresholds[best],
            energy_j=opt,
            savings_vs_immediate=saving(energies[low]),
            savings_vs_never=saving(energies[high]),
        )

    def optimum(self) -> tuple[float, float]:
        """(threshold, energy) of the minimum-energy grid point."""
        best = self.summary()
        return best.threshold, best.energy_j

    def immediate_powerdown_energy(self) -> float:
        """Energy at the smallest threshold (power down immediately)."""
        i = min(range(len(self.thresholds)), key=lambda j: self.thresholds[j])
        return self.total_energy_j[i]

    def never_powerdown_energy(self) -> float:
        """Energy at the largest threshold (CPU effectively always on)."""
        i = max(range(len(self.thresholds)), key=lambda j: self.thresholds[j])
        return self.total_energy_j[i]

    def savings_vs_immediate(self) -> float:
        """Fractional saving of the optimum vs immediate power-down."""
        return self.summary().savings_vs_immediate

    def savings_vs_never(self) -> float:
        """Fractional saving of the optimum vs never powering down."""
        return self.summary().savings_vs_never

    def series(self, category: str) -> list[float]:
        """One stacked component series across the sweep."""
        return [b.get(category) for b in self.breakdowns]


def run_node_energy_sweep(
    config: NodeSweepConfig | None = None,
    *,
    exec_cfg=None,
) -> NodeSweepResult:
    """Simulate the node at every threshold grid point.

    Replication 0 uses the same seed at every point (common random
    numbers), so the energy curve differences across thresholds reflect
    the threshold, not workload noise; further replications run with
    independent spawned seeds so each point's interval can report the
    workload noise.  All (point × replication) simulations
    are submitted through
    :func:`~repro.runtime.adaptive.run_replications`, configured by
    ``exec_cfg`` (an :class:`~repro.runtime.config.ExecutionConfig` or
    resolved :class:`~repro.runtime.config.ResolvedExecution`); the
    serial single-replication default is bit-identical to the
    pre-runtime serial sweep, and no placement setting changes the
    numbers.

    With ``ci_target`` set, replication counts are chosen per point by
    the adaptive controller on the total-energy metric: each point stops
    once its 95 % interval's relative half-width crosses the target (or
    at ``max_replications``).  The per-point seed plan is then sized at
    ``max_replications`` (``replication_seeds`` is prefix-stable), so an
    adaptive run's replicates are a bit-identical prefix of the fixed
    ``replications=max_replications`` run; ``replications`` (at least 2)
    is the per-point floor.

    ``engine="vectorized"`` runs the replications of every threshold
    point as rows of one lockstep ensemble per executor slot
    (:mod:`repro.core.fast`; one net, per-row ``Power_Down_Threshold``
    delays); the engine is bit-identical per replication, so the sweep
    result matches the interpreted engine exactly at every seed plan.

    A ``store`` memoizes per-replication node results keyed by
    ``(params, workload, horizon, seed)`` — shared across engines,
    backends and replication policies, so warm re-runs and
    ``max_replications`` top-ups recompute only unseen replications.
    """
    from ..runtime.adaptive import run_replications
    from ..runtime.config import as_resolved
    from ..runtime.seeding import replication_seeds

    rx = as_resolved(exec_cfg)
    cfg = config if config is not None else NodeSweepConfig()
    rep_seeds = replication_seeds(cfg.seed, rx.seed_plan_size)
    point_params = [cfg.params.with_threshold(t) for t in cfg.thresholds]
    runs = run_replications(
        simulate_node_task,
        lambda i, r: (point_params[i], cfg.workload, cfg.horizon, rep_seeds[r]),
        len(cfg.thresholds),
        rx,
        ensemble_fn=simulate_node_ensemble_task,
        metrics=lambda result: result.total_energy_j,
    )
    return NodeSweepResult(
        workload=cfg.workload,
        thresholds=tuple(cfg.thresholds),
        runs=runs,
        ci_target=rx.ci_target,
    )
