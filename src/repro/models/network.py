"""Multi-node sensor-network energy and lifetime analysis.

The paper's conclusion positions the node model as "a valuable
platform for energy optimization in wireless sensor networks", and its
related work (Coleri et al.) analyses power "based on [a node's]
location in the sensor network".  This module composes the Figs. 12/13
node model into that network view:

* a :class:`NetworkTopology` assigns each node an *effective event
  rate* — its own sensing events plus the traffic it relays toward the
  sink.  A line (chain) topology gives the classic hotspot: the node
  next to the sink relays everyone's traffic and dies first.  A star
  gives one hub doing all relaying.  A :class:`GridTopology` scales the
  same structure to hundreds of nodes routed along a
  column-then-row tree to a corner sink;
* :class:`SensorNetworkModel` simulates each node at its effective
  rate (nodes are simulated independently — radio contention between
  nodes is out of scope and documented), accounts per-node energy, and
  converts it into per-node and network lifetime (first node death)
  for a given battery.

This turns the single-node ``Power_Down_Threshold`` question into the
deployment-level one: which threshold maximises the *network* lifetime,
given that the hotspot node sees a different workload than the leaves?

Because nodes are independent, each node is one task of
:func:`repro.runtime.run_replications`, which chunks the node set over
the executor's workers like any other task set; :func:`run_networks`
makes a network replication one group of such tasks, so a threshold
sweep's networks share one call.  Per-node seeds are
keyed by node index, so every ``workers`` / backend combination is
bit-identical to the serial run.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Any

from ..energy.battery import LinearBattery, NodeLifetimeEstimator, PeukertBattery
from .wsn_node import (
    NodeParameters,
    WSNNodeResult,
    simulate_node_ensemble_task,
    simulate_node_task,
)

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun
    from ..runtime.config import ResolvedExecution
    from ..topology.dynamics import ChurnModel, ChurnReport, NodeSegment
    from ..topology.traffic import MMPPTraffic
    from .workload import WorkloadGenerator

__all__ = [
    "NetworkTopology",
    "LineTopology",
    "StarTopology",
    "GridTopology",
    "NodeSummary",
    "NetworkResult",
    "SensorNetworkModel",
    "FOLD_REVISION",
    "replication_key",
    "run_networks",
    "simulate_node_segments_task",
    "simulate_node_segments_ensemble_task",
]

#: Seconds per day, for converting failure times to lifetime units.
_DAY_S = 86400.0

#: Revision of the value one network replication folds to, part of its
#: store key (:func:`replication_key`).  Bump it whenever the same model,
#: horizon, base rate and seed would give a different
#: :class:`NetworkResult`: a change to how :meth:`SensorNetworkModel._node_run`
#: derives node tasks (rates, seeds, churn schedule), to the fold
#: (``_summarise``, ``_summarise_segments``, the lifetime estimator) or
#: to the fields of :class:`NetworkResult` and :class:`NodeSummary`.
FOLD_REVISION = 1


class NetworkTopology:
    """Assigns each node the event rate it must handle."""

    #: Number of nodes (excluding the sink, which is mains-powered).
    n_nodes: int

    def effective_rates(self, base_rate: float) -> list[float]:
        """Per-node event rate including relayed traffic."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line topology description."""
        raise NotImplementedError

    def tree_parents(self) -> tuple[int, ...]:
        """Convergecast routing tree as a parent array.

        Entry ``i`` is the 0-based index of the node that relays node
        ``i``'s traffic; :data:`repro.topology.routing.SINK` (``-1``)
        marks nodes that reach the sink directly.  Every topology's
        :meth:`effective_rates` must equal ``base_rate`` × the subtree
        sizes of this tree — the :mod:`repro.topology` dynamics layer
        relies on that consistency when it recomputes per-epoch rates.

        >>> from repro.models import LineTopology
        >>> LineTopology(4).tree_parents()
        (-1, 0, 1, 2)
        """
        raise NotImplementedError

    def rewire(self, alive: Sequence[bool]) -> tuple[int, ...]:
        """Routing tree after the nodes where ``alive`` is false died.

        The default policy re-parents each survivor to its nearest
        live *ancestor* on the original tree (ultimately the sink, so
        survivors always stay connected); geometry-aware topologies
        override this with a true shortest-path recompute.  Dead nodes
        are marked :data:`repro.topology.routing.UNREACHABLE` (``-2``).
        """
        from ..topology.routing import climb_rewire

        return climb_rewire(self.tree_parents(), alive)


@dataclass(frozen=True)
class LineTopology(NetworkTopology):
    """A chain: node i (1-indexed from the sink) relays nodes i+1..N.

    Node 1 (next to the sink) handles its own events plus everything
    upstream: rate ``N × base``.  Node N (the far end) handles only its
    own: rate ``base``.  The linear gradient is the canonical WSN
    energy-hole scenario.
    """

    n_nodes: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")

    def effective_rates(self, base_rate: float) -> list[float]:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        return [
            base_rate * (self.n_nodes - i) for i in range(self.n_nodes)
        ]

    def tree_parents(self) -> tuple[int, ...]:
        return tuple(i - 1 if i > 0 else -1 for i in range(self.n_nodes))

    def describe(self) -> str:
        return f"line of {self.n_nodes} nodes (node 1 adjacent to the sink)"


@dataclass(frozen=True)
class StarTopology(NetworkTopology):
    """A hub relaying ``n_leaves`` leaves to the sink.

    Node 1 is the hub (rate ``(n_leaves + 1) × base`` — its own events
    plus every leaf's); nodes 2..n are leaves at ``base``.
    """

    n_leaves: int

    def __post_init__(self) -> None:
        if self.n_leaves < 1:
            raise ValueError("n_leaves must be >= 1")

    @property
    def n_nodes(self) -> int:  # type: ignore[override]
        return self.n_leaves + 1

    def effective_rates(self, base_rate: float) -> list[float]:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        return [base_rate * (self.n_leaves + 1)] + [base_rate] * self.n_leaves

    def tree_parents(self) -> tuple[int, ...]:
        return (-1,) + (0,) * self.n_leaves

    def describe(self) -> str:
        return f"star with 1 hub and {self.n_leaves} leaves"


@dataclass(frozen=True)
class GridTopology(NetworkTopology):
    """A ``width × height`` grid routed to a mains-powered corner sink.

    Node ``(x, y)`` (0-indexed, ``x`` along the sink row) forwards to
    ``(x, y-1)`` within its column and, on the sink row ``y = 0``, to
    ``(x-1, 0)`` — the standard column-then-row convergecast tree.  Its
    effective rate is ``base × subtree size``:

    * interior node ``(x, y>0)`` drains the ``height - y`` nodes above
      it in its column;
    * sink-row node ``(x, 0)`` drains the ``(width - x) × height``
      nodes of every column at or beyond ``x``.

    Node 1 — grid position ``(0, 0)``, adjacent to the sink — carries
    the whole deployment (``width × height × base``) and is the
    hotspot, scaling the line topology's energy hole to
    hundreds-of-node scenarios.  Nodes are numbered column-major from
    the sink: index ``i`` is position ``(i // height, i % height)``.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")

    @property
    def n_nodes(self) -> int:  # type: ignore[override]
        return self.width * self.height

    def position(self, node_index: int) -> tuple[int, int]:
        """Grid coordinates ``(x, y)`` of a 0-based node index."""
        if not 0 <= node_index < self.n_nodes:
            raise ValueError(
                f"node_index must be in [0, {self.n_nodes}), got {node_index}"
            )
        return divmod(node_index, self.height)

    def subtree_size(self, node_index: int) -> int:
        """Nodes drained through this node, itself included."""
        x, y = self.position(node_index)
        if y > 0:
            return self.height - y
        return (self.width - x) * self.height

    def effective_rates(self, base_rate: float) -> list[float]:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        return [
            base_rate * self.subtree_size(i) for i in range(self.n_nodes)
        ]

    def tree_parents(self) -> tuple[int, ...]:
        parents = []
        for i in range(self.n_nodes):
            x, y = self.position(i)
            if y > 0:
                parents.append(i - 1)  # (x, y-1) is the previous index
            elif x > 0:
                parents.append(i - self.height)  # (x-1, 0)
            else:
                parents.append(-1)
        return tuple(parents)

    def describe(self) -> str:
        return (
            f"{self.width}x{self.height} grid of {self.n_nodes} nodes "
            "(corner sink next to node 1)"
        )


@dataclass(frozen=True)
class NodeSummary:
    """Per-node outcome of a network run."""

    node_id: int
    event_rate: float
    mean_power_mw: float
    energy_j: float
    lifetime_days: float
    cpu_wakeups: int
    events_completed: int


@dataclass
class NetworkResult:
    """Outcome of one network simulation (or a merged set of parts).

    The aggregate metrics are all decomposable over nodes, which is what
    makes :meth:`merge` exact rather than approximate: total energy is
    a sum over nodes, network lifetime is a min, and the hotspot is the
    argmin node — each distributes over any partition of the node set.
    """

    topology: str
    power_down_threshold: float
    horizon_s: float
    nodes: list[NodeSummary]
    #: Churn statistics, attached by the parent after any merge —
    #: parts never see or produce this, so merging stays exact.
    dynamics: ChurnReport | None = None

    @classmethod
    def merge(cls, results: Sequence["NetworkResult"]) -> "NetworkResult":
        """Combine results over disjoint node sets into one network-wide result.

        Requires every part to describe the same run (topology label,
        threshold, horizon) and the node ids to be disjoint; nodes are
        re-sorted by id so the merged result is independent of part
        order, making ``merge`` associative and commutative.  The
        aggregates follow from the node list: lifetime = min over
        parts, hotspot = the argmin node, energy = sum of part
        energies.
        """
        results = list(results)
        if not results:
            raise ValueError("merge needs at least one NetworkResult")
        first = results[0]
        for r in results[1:]:
            if (
                r.topology != first.topology
                or r.power_down_threshold != first.power_down_threshold
                or r.horizon_s != first.horizon_s
            ):
                raise ValueError(
                    "cannot merge results from different runs: "
                    f"({r.topology!r}, {r.power_down_threshold}, "
                    f"{r.horizon_s}) vs ({first.topology!r}, "
                    f"{first.power_down_threshold}, {first.horizon_s})"
                )
        nodes = sorted(
            (n for r in results for n in r.nodes), key=lambda n: n.node_id
        )
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids across parts: {duplicates}")
        return cls(
            topology=first.topology,
            power_down_threshold=first.power_down_threshold,
            horizon_s=first.horizon_s,
            nodes=nodes,
        )

    @property
    def total_energy_j(self) -> float:
        """Network-wide energy over the run."""
        return sum(n.energy_j for n in self.nodes)

    @property
    def network_lifetime_days(self) -> float:
        """Time to first node death — the usual WSN lifetime metric."""
        return min(n.lifetime_days for n in self.nodes)

    @property
    def hotspot(self) -> NodeSummary:
        """The node that dies first."""
        return min(self.nodes, key=lambda n: n.lifetime_days)

    def lifetime_imbalance(self) -> float:
        """max/min node lifetime — 1.0 means perfectly balanced."""
        lifetimes = [n.lifetime_days for n in self.nodes]
        lo = min(lifetimes)
        return max(lifetimes) / lo if lo > 0 else float("inf")


#: A churned node's task: ``(params, workload, traffic, segments)``.
_SegmentsTask = tuple[
    NodeParameters, str, "MMPPTraffic | None", tuple["NodeSegment", ...]
]


def _node_tasks(
    task: _SegmentsTask,
) -> list[tuple[NodeParameters, str | WorkloadGenerator, float, int]]:
    """One :func:`simulate_node_task` tuple per alive segment of ``task``."""
    params, workload, traffic, segments = task
    return [
        (
            replace(params, arrival_rate=seg.rate),
            traffic.workload(seg.rate) if traffic is not None else workload,
            seg.duration_s,
            seg.seed,
        )
        for seg in segments
    ]


def simulate_node_segments_task(task: _SegmentsTask) -> list[WSNNodeResult]:
    """Worker task: one churn-scheduled node, all its alive segments.

    ``task = (params, workload, traffic, segments)`` — the picklable
    unit the runtime maps under churn.  Each
    :class:`~repro.topology.dynamics.NodeSegment` is simulated
    back-to-back at its epoch's effective rate with its own
    deterministic seed; results come back per segment for the parent
    to fold into one :class:`NodeSummary`.  Keeping the whole node in
    one task preserves the node-granular dispatch and result-store
    keying of the static path.
    """
    return [simulate_node_task(t) for t in _node_tasks(task)]


def simulate_node_segments_ensemble_task(
    tasks: tuple[_SegmentsTask, ...],
) -> list[list[WSNNodeResult]]:
    """:func:`simulate_node_segments_task` over many nodes, as one ensemble.

    The ``engine="vectorized"`` batch form: returns
    ``[simulate_node_segments_task(t) for t in tasks]``, bit for bit.
    Every segment of every task is one row of a single
    :func:`~repro.models.wsn_node.simulate_node_ensemble_task` call,
    each row at its segment's own duration.
    """
    rows = tuple(t for task in tasks for t in _node_tasks(task))
    flat = iter(simulate_node_ensemble_task(rows))
    return [list(islice(flat, len(task[3]))) for task in tasks]


class SensorNetworkModel:
    """A network of Figs. 12/13 nodes with per-node relayed workloads.

    Parameters
    ----------
    topology:
        Rate-assignment scheme (:class:`LineTopology`, :class:`StarTopology`
        or custom).
    params:
        Shared node parameters; each node's ``arrival_rate`` is replaced
        by its topology-assigned effective rate.
    battery:
        Per-node battery for lifetime conversion.
    workload:
        ``"open"`` (default — relayed traffic arrives regardless of the
        relay's state, which is physically right) or ``"closed"``.
    dynamics:
        Optional :class:`~repro.topology.dynamics.ChurnModel`.  When
        active, every run precomputes a deterministic
        :class:`~repro.topology.dynamics.ChurnSchedule` in the parent
        (failures, rewiring, duty variation) and simulates each node's
        alive segments via :func:`simulate_node_segments_task`.  An
        inert model (both knobs zero) is normalised to ``None`` so the
        exact legacy path — and its result-store keys — is used.
    traffic:
        Optional :class:`~repro.topology.traffic.MMPPTraffic`.  Each
        node then draws bursty MMPP arrivals whose long-run mean
        equals its topology-assigned effective rate (open workload
        only).

    Notes
    -----
    Nodes are simulated independently: inter-node radio contention and
    listen/forward coupling are not modelled (the per-node radio time
    already includes its own receive + transmit phases per handled
    event).  This matches the granularity of the paper's single-node
    model while exposing the network-level workload gradient.

    Example
    -------
    >>> from repro.models import GridTopology, NodeParameters, SensorNetworkModel
    >>> net = SensorNetworkModel(
    ...     GridTopology(5, 4), NodeParameters(power_down_threshold=0.01)
    ... )
    >>> from repro.runtime import ExecutionConfig
    >>> result = net.simulate(
    ...     horizon=5.0, seed=7, base_rate=0.2,
    ...     exec_cfg=ExecutionConfig(workers=2),
    ... )
    >>> len(result.nodes)
    20
    >>> result.nodes[0].event_rate  # the sink-adjacent corner relays all 20
    4.0
    >>> result.total_energy_j == sum(n.energy_j for n in result.nodes)
    True
    """

    def __init__(
        self,
        topology: NetworkTopology,
        params: NodeParameters | None = None,
        battery: LinearBattery | PeukertBattery | None = None,
        workload: str = "open",
        dynamics: ChurnModel | None = None,
        traffic: MMPPTraffic | None = None,
    ) -> None:
        self.topology = topology
        self.params = params if params is not None else NodeParameters()
        self.battery = (
            battery
            if battery is not None
            else LinearBattery(capacity_mah=1000.0, voltage_v=4.5, usable_fraction=0.85)
        )
        if workload not in ("open", "closed"):
            raise ValueError(f"workload must be open or closed, got {workload!r}")
        if traffic is not None and workload != "open":
            raise ValueError(
                "bursty traffic requires the open workload "
                f"(relayed arrivals are state-independent), got {workload!r}"
            )
        self.workload = workload
        # An inert churn model changes nothing: normalise it away so
        # the legacy task path (and its store keys) stays byte-exact.
        self.dynamics = (
            dynamics if dynamics is not None and dynamics.is_active() else None
        )
        self.traffic = traffic

    def _summarise(
        self,
        node_index: int,
        rate: float,
        result: WSNNodeResult,
        estimator: NodeLifetimeEstimator,
    ) -> NodeSummary:
        """Fold one node run into its :class:`NodeSummary` row."""
        mean_power_mw = (
            result.total_energy_j / result.duration * 1000.0
            if result.duration > 0
            else 0.0
        )
        return NodeSummary(
            node_id=node_index + 1,
            event_rate=rate,
            mean_power_mw=mean_power_mw,
            energy_j=result.total_energy_j,
            lifetime_days=estimator.lifetime_days(mean_power_mw),
            cpu_wakeups=result.cpu_wakeups,
            events_completed=result.events_completed,
        )

    def _summarise_segments(
        self,
        node_index: int,
        segments: Sequence["NodeSegment"],
        results: Sequence[WSNNodeResult],
        estimator: NodeLifetimeEstimator,
        failure_time_s: float | None,
    ) -> NodeSummary:
        """Fold a churn-scheduled node's segment runs into one row.

        Energy and counters sum across segments; mean power averages
        over the node's *alive* time; the reported event rate is the
        duration-weighted mean of the per-epoch effective rates.  A
        node killed by churn has its lifetime clipped to the failure
        time — network lifetime (time to first node death) then
        reflects the churn event, exactly as it would a battery death.
        """
        energy = sum(r.total_energy_j for r in results)
        alive_s = sum(r.duration for r in results)
        mean_power_mw = energy / alive_s * 1000.0 if alive_s > 0 else 0.0
        lifetime_days = estimator.lifetime_days(mean_power_mw)
        if failure_time_s is not None:
            lifetime_days = min(lifetime_days, failure_time_s / _DAY_S)
        rate = (
            sum(s.rate * s.duration_s for s in segments) / alive_s
            if alive_s > 0
            else 0.0
        )
        return NodeSummary(
            node_id=node_index + 1,
            event_rate=rate,
            mean_power_mw=mean_power_mw,
            energy_j=energy,
            lifetime_days=lifetime_days,
            cpu_wakeups=sum(r.cpu_wakeups for r in results),
            events_completed=sum(r.events_completed for r in results),
        )

    def _task_fns(self) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
        """The node task evaluator and its ensemble form."""
        if self.dynamics is not None:
            return simulate_node_segments_task, simulate_node_segments_ensemble_task
        return simulate_node_task, simulate_node_ensemble_task

    def _node_run(
        self, horizon: float, seed: int, base_rate: float
    ) -> tuple[list[Any], Callable[[list[Any]], NetworkResult]]:
        """One network run's node tasks and the fold of their values.

        Returns ``(tasks, fold)``: one :meth:`_task_fns` task per node,
        and ``fold(values)``, which turns the tasks' values (in node
        order) into the run's :class:`NetworkResult`.  Everything that
        makes a task — per-node seeds and, under churn, the whole
        schedule (failures, rewired trees, per-epoch rates and
        per-segment seeds) — is fixed here, in the parent, so each
        task is a pure function of its own contents.
        """
        from ..runtime.seeding import node_seeds

        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        rates = self.topology.effective_rates(base_rate)
        estimator = NodeLifetimeEstimator(self.battery)
        seeds = node_seeds(seed, len(rates))
        schedule = None
        if self.dynamics is not None:
            schedule = self.dynamics.schedule(
                self.topology, base_rate, horizon, seed
            )
            tasks = [
                (
                    self.params,
                    self.workload,
                    self.traffic,
                    schedule.node_segments(i, node_seed),
                )
                for i, node_seed in enumerate(seeds)
            ]
        else:
            # Nodes share few distinct rates: build (and validate) each
            # rate's parameters and workload once.
            by_rate = {
                rate: (
                    replace(self.params, arrival_rate=rate),
                    self.traffic.workload(rate)
                    if self.traffic is not None
                    else self.workload,
                )
                for rate in dict.fromkeys(rates)
            }
            tasks = [
                (*by_rate[rate], horizon, node_seed)
                for rate, node_seed in zip(rates, seeds)
            ]

        def summarise(i: int, result) -> NodeSummary:
            if schedule is None:
                return self._summarise(i, rates[i], result, estimator)
            return self._summarise_segments(
                i, tasks[i][3], result, estimator, schedule.failure_time(i)
            )

        def fold(values: list[Any]) -> NetworkResult:
            return NetworkResult(
                topology=self.topology.describe(),
                power_down_threshold=self.params.power_down_threshold,
                horizon_s=horizon,
                nodes=[summarise(i, value) for i, value in enumerate(values)],
                dynamics=schedule.report() if schedule is not None else None,
            )

        return tasks, fold

    def simulate(
        self,
        horizon: float,
        seed: int = 0,
        base_rate: float = 1.0,
        *,
        exec_cfg=None,
    ) -> NetworkResult:
        """Simulate every node at its effective rate, once.

        The one-network, one-replication case of :func:`run_networks`.
        ``exec_cfg`` — an :class:`~repro.runtime.config.ExecutionConfig`
        (or resolved :class:`~repro.runtime.config.ResolvedExecution`)
        — places the work; its replication policy does not apply.
        Nodes are independent, so each node is one task, and the
        executor chunks the node set over the workers.

        Per-node seeds are fixed *before* distribution and keyed by
        node index (``seed + node_index``, see
        :func:`~repro.runtime.seeding.node_seeds`), so results are
        identical for any ``workers`` and backend.

        A ``store`` memoizes the run twice.  The folded
        :class:`NetworkResult` is one entry under
        :func:`replication_key` (the whole model, horizon, base rate,
        seed, node evaluator and :data:`FOLD_REVISION`), so a warm run
        is one read.  Each node's result is an entry keyed by ``(node
        params incl. effective rate, workload, horizon, node seed)``:
        a run whose fold entry is missing or corrupt is served from
        those, computes only the nodes that miss and writes its fold
        entry, and a run that shares node simulations with an earlier
        one (another topology or threshold sweep) reuses them.
        """
        from ..runtime.config import as_resolved

        [run] = run_networks([self], horizon, base_rate, seed, as_resolved(exec_cfg))
        return run.values[0]


def replication_key(
    model: SensorNetworkModel, horizon: float, base_rate: float, seed: int
) -> str:
    """The store key of one network replication's :class:`NetworkResult`.

    A :func:`~repro.runtime.store.task_key` over :data:`FOLD_REVISION`,
    the node evaluator, the whole ``model`` (topology, parameters,
    battery, workload, dynamics and traffic), ``horizon``,
    ``base_rate`` and the replication ``seed``: everything the
    replication's node tasks and their fold are derived from.  The
    evaluator identity is :func:`run_networks`, so the key never
    aliases a node task's key, and it carries the node evaluator and
    ``KEY_SCHEMA`` that every node key carries.
    """
    from ..runtime.store import task_key

    fn, _ = model._task_fns()
    return task_key(
        run_networks, (FOLD_REVISION, fn, model, horizon, base_rate, seed)
    )


def run_networks(
    models: Sequence[SensorNetworkModel],
    horizon: float,
    base_rate: float,
    seed: int,
    rx: ResolvedExecution,
    *,
    ci_target: float | None = None,
) -> list[AdaptivePointRun]:
    """Replicate each network of ``models`` in one dispatch.

    One :func:`~repro.runtime.adaptive.run_replications` call, with
    one point per model: a replication is the model's node tasks
    (:meth:`SensorNetworkModel._node_run`), each keyed in ``rx.store``,
    dispatched and packed on its own, so the nodes of every network
    and replication of a round share its ensembles.  Its values fold
    into the replication's :class:`NetworkResult`, which ``rx.store``
    keeps under :func:`replication_key`: a warm replication is that
    one read, and only a miss expands into node tasks.

    ``rx`` places the work; ``rx.replications`` and ``rx.ci_target``
    do not apply.  Without ``ci_target`` each model runs once, at
    ``seed``.  With it, each replicates on total network energy
    (network lifetime quantises to the hotspot node's battery) from a
    floor of 2 to ``rx.max_replications``, replication ``r`` at
    ``replication_seeds(seed, ...)[r]``: replication 0 is the single
    run, and an adaptive run is a prefix of the fixed
    ``max_replications`` run.  The models must all run with churn or
    all without.
    """
    from ..runtime.adaptive import run_replications
    from ..runtime.seeding import replication_seeds

    [(fn, ensemble_fn)] = {model._task_fns() for model in models}
    rx = replace(rx, replications=1, ci_target=ci_target)
    seeds = replication_seeds(seed, rx.seed_plan_size)
    folds: dict[tuple[int, int], Callable[[list[Any]], NetworkResult]] = {}

    def tasks_for(i: int, r: int) -> list[Any]:
        tasks, folds[i, r] = models[i]._node_run(horizon, seeds[r], base_rate)
        return tasks

    return run_replications(
        fn,
        tasks_for,
        len(models),
        rx,
        ensemble_fn=ensemble_fn,
        metrics=lambda result: result.total_energy_j,
        fold=lambda i, r, values: folds.pop((i, r))(values),
        fold_key=lambda i, r: replication_key(models[i], horizon, base_rate, seeds[r]),
    )
