"""Network-scenario driver: multi-node lifetime experiments.

The deployment-level companion of the Figs. 14/15 sweeps: build a
topology (line, star, or a hundreds-of-node grid), simulate every node
at its relay-inflated event rate, one :mod:`repro.runtime` task per
node, and report the network metrics — time to first node death, the
hotspot node, total energy and the lifetime imbalance that motivates
location-aware power management.

Two entry points:

* :func:`run_network_scenario` — one :class:`~repro.models.network.NetworkResult`
  at the configured threshold;
* :func:`run_network_lifetime_sweep` — a :class:`NetworkSweepResult`
  over a threshold grid (default :data:`~repro.experiments.sweep.NETWORK_THRESHOLDS`),
  answering "which ``Power_Down_Threshold`` maximises *network* lifetime?".

Each is one :func:`~repro.runtime.adaptive.run_replications` dispatch
over node tasks, whatever its thresholds and replications.  Both take
an ``exec_cfg`` whose ``workers`` (process-pool size) and backend never
change the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..energy.battery import IMOTE2_3xAAA, LinearBattery, PeukertBattery
from ..models.network import (
    GridTopology,
    LineTopology,
    NetworkResult,
    NetworkTopology,
    SensorNetworkModel,
    StarTopology,
    run_networks,
)
from ..models.wsn_node import NodeParameters
from .sweep import NETWORK_THRESHOLDS

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun
    from ..runtime.config import ResolvedExecution
    from ..topology.dynamics import ChurnModel
    from ..topology.traffic import MMPPTraffic

__all__ = [
    "NetworkScenarioConfig",
    "NetworkSweepResult",
    "make_topology",
    "run_network_scenario",
    "run_network_lifetime_sweep",
    "format_network_summary",
]


def make_topology(
    kind: str,
    nodes: int = 5,
    width: int = 10,
    height: int = 10,
    radius: float | None = None,
    fanout: int = 3,
    depth: int = 3,
    seed: int = 0,
) -> NetworkTopology:
    """Build a topology from CLI-style arguments.

    ``kind`` is ``"line"`` (``nodes`` chain links), ``"star"``
    (``nodes`` counts the leaves; the hub is added), ``"grid"``
    (``width × height`` nodes, corner sink), ``"geometric"``
    (``nodes`` dropped uniformly in the unit square with connectivity
    ``radius`` — ``None`` auto-sizes — laid out from ``seed``) or
    ``"cluster-tree"`` (a complete ``fanout``-ary tree of ``depth``
    levels; ``nodes`` is implied).
    """
    if kind == "line":
        return LineTopology(nodes)
    if kind == "star":
        return StarTopology(nodes)
    if kind == "grid":
        return GridTopology(width, height)
    if kind == "geometric":
        # Imported here, not at module top: repro.topology reaches the
        # runtime package (for seeding), whose __init__ reaches back
        # into repro.experiments — a top-level import would make this
        # module's import order-dependent.
        from ..topology.generators import RandomGeometricTopology

        return RandomGeometricTopology(nodes, radius=radius, seed=seed)
    if kind == "cluster-tree":
        from ..topology.generators import ClusterTreeTopology

        return ClusterTreeTopology(fanout, depth)
    raise ValueError(
        "kind must be 'line', 'star', 'grid', 'geometric' or "
        f"'cluster-tree', got {kind!r}"
    )


@dataclass(frozen=True)
class NetworkScenarioConfig:
    """One network scenario: topology, workload intensity, run length."""

    topology: NetworkTopology = LineTopology(5)
    horizon: float = 300.0
    base_rate: float = 0.5
    seed: int = 2010
    thresholds: tuple[float, ...] = NETWORK_THRESHOLDS
    params: NodeParameters = NodeParameters(power_down_threshold=0.01)
    battery: LinearBattery | PeukertBattery = IMOTE2_3xAAA
    workload: str = "open"
    #: Optional node churn (failures, rewiring, duty variation).
    dynamics: ChurnModel | None = None
    #: Optional bursty (MMPP) arrivals replacing pure Poisson.
    traffic: MMPPTraffic | None = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")


@dataclass
class NetworkSweepResult:
    """Per-threshold network results plus the optimisation verdicts.

    ``runs`` holds one :class:`~repro.runtime.adaptive.AdaptivePointRun`
    per threshold: every executed replication's
    :class:`~repro.models.network.NetworkResult` and, under adaptive
    replication control (``ci_target``), whether the point met the
    target before ``max_replications``.  The verdicts read replication 0.
    """

    topology: str
    thresholds: tuple[float, ...]
    runs: list[AdaptivePointRun]
    ci_target: float | None = None

    @property
    def results(self) -> list[NetworkResult]:
        """Replication 0 per threshold."""
        return [run.values[0] for run in self.runs]

    @property
    def lifetimes_days(self) -> list[float]:
        """Network lifetime (first node death) per threshold."""
        return [r.network_lifetime_days for r in self.results]

    @property
    def energies_j(self) -> list[float]:
        """Total network energy per threshold."""
        return [r.total_energy_j for r in self.results]

    def best(self) -> NetworkResult:
        """The threshold point with the longest network lifetime."""
        return max(self.results, key=lambda r: r.network_lifetime_days)

    def rows(self) -> list[list[float]]:
        """Table rows: threshold, energy, lifetime, hotspot, imbalance."""
        return [
            [
                r.power_down_threshold,
                r.total_energy_j,
                r.network_lifetime_days,
                r.hotspot.node_id,
                r.lifetime_imbalance(),
            ]
            for r in self.results
        ]


def _network_runs(
    cfg: NetworkScenarioConfig,
    thresholds: tuple[float, ...],
    rx: ResolvedExecution,
) -> list[AdaptivePointRun]:
    """One network per threshold, replicated as ``rx`` asks.

    A single :func:`~repro.models.network.run_networks` dispatch: the
    node tasks of every threshold point and replication share its
    rounds, so the vectorized engine packs nodes across points, and the
    store keeps each replication's folded result as one entry.
    """
    models = [
        SensorNetworkModel(
            cfg.topology,
            cfg.params.with_threshold(t),
            cfg.battery,
            cfg.workload,
            dynamics=cfg.dynamics,
            traffic=cfg.traffic,
        )
        for t in thresholds
    ]
    return run_networks(
        models, cfg.horizon, cfg.base_rate, cfg.seed, rx, ci_target=rx.ci_target
    )


def run_network_scenario(
    config: NetworkScenarioConfig | None = None,
    threshold: float | None = None,
    *,
    exec_cfg=None,
) -> NetworkResult | AdaptivePointRun:
    """Simulate one network at one ``Power_Down_Threshold``.

    ``threshold`` overrides ``config.params.power_down_threshold`` when
    given.  ``exec_cfg`` — an
    :class:`~repro.runtime.config.ExecutionConfig` (or resolved
    :class:`~repro.runtime.config.ResolvedExecution`) — says how to
    run: each node is one task on its ``workers`` / backend, and
    results are identical for any of them.

    With ``ci_target`` set, the whole scenario replicates with spawned
    seeds until the total-energy interval's relative half-width meets
    the target (or ``max_replications``), returning the point's
    :class:`~repro.runtime.adaptive.AdaptivePointRun`, whose
    replication 0 is bit-identical to the unreplicated scenario.  The
    ``replications`` field is not used here: replication counts are
    adaptive (``ci_target``-driven) for network scenarios.
    """
    from ..runtime.config import as_resolved

    rx = as_resolved(exec_cfg)
    cfg = config if config is not None else NetworkScenarioConfig()
    if threshold is not None:
        cfg = replace(cfg, params=cfg.params.with_threshold(threshold))
    [run] = _network_runs(cfg, (cfg.params.power_down_threshold,), rx)
    return run.values[0] if rx.ci_target is None else run


def run_network_lifetime_sweep(
    config: NetworkScenarioConfig | None = None,
    *,
    exec_cfg=None,
) -> NetworkSweepResult:
    """Sweep ``config.thresholds`` on the network-lifetime metric.

    ``exec_cfg`` is as in :func:`run_network_scenario`.  The node tasks
    of every threshold point run in one dispatch, so the vectorized
    engine packs nodes of different points into one ensemble.  With
    ``ci_target`` set, every threshold point replicates adaptively on
    its total-energy interval and stops independently; ``results``
    still reads the replication-0 series (bit-identical to the
    single-run sweep), and ``runs`` holds every replication.
    """
    from ..runtime.config import as_resolved

    rx = as_resolved(exec_cfg)
    cfg = config if config is not None else NetworkScenarioConfig()
    runs = _network_runs(cfg, tuple(cfg.thresholds), rx)
    return NetworkSweepResult(
        # The folded results carry the description: a warm sweep need
        # not resolve a generated layout just to print its header.
        topology=runs[0].values[0].topology,
        thresholds=tuple(cfg.thresholds),
        runs=runs,
        ci_target=rx.ci_target,
    )


def format_network_summary(result: NetworkResult) -> str:
    """Human-readable one-run summary (hotspot, lifetime, energy)."""
    hotspot = result.hotspot
    lines = [
        f"topology            : {result.topology}",
        f"Power_Down_Threshold: {result.power_down_threshold:g} s",
        f"simulated horizon   : {result.horizon_s:g} s",
        f"total energy        : {result.total_energy_j:.4f} J",
        f"network lifetime    : {result.network_lifetime_days:.2f} days "
        f"(first death: node {hotspot.node_id} "
        f"at {hotspot.event_rate:g} events/s)",
        f"lifetime imbalance  : {result.lifetime_imbalance():.2f}x "
        "(max/min node lifetime)",
    ]
    if result.dynamics is not None:
        d = result.dynamics
        lines.append(
            f"churn               : {d.failures} failures "
            f"({d.survivors} survivors), {d.reparented} nodes rewired, "
            f"{d.unreachable} cut off"
        )
    return "\n".join(lines)
