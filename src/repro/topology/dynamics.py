"""Network dynamics: node churn, rewiring and duty-cycle variation.

The paper's network runs assume immortal nodes at identical duty
cycles.  :class:`ChurnModel` lifts both assumptions while keeping the
repo's bit-identity contract intact, by moving every random decision
into the *parent* process before any work is distributed:

1. per-node duty-cycle factors and failure times are drawn from
   dedicated tagged :class:`~numpy.random.SeedSequence` sub-streams of
   the run seed (:data:`DUTY_STREAM`, :data:`FAILURE_STREAM`);
2. the sorted failure times split the horizon into *epochs*; within an
   epoch the alive set is constant, so the routing tree — recomputed
   via :meth:`~repro.models.network.NetworkTopology.rewire` at each
   epoch boundary — and every node's effective rate are too;
3. the resulting :class:`ChurnSchedule` hands each node an independent
   list of ``(rate, duration, seed)`` *segments*.  A node's segments
   are simulated back-to-back by one worker task, so every node is
   still one independent task: nothing a node's task computes depends
   on any other node's.

The schedule is a pure function of ``(topology, base_rate, horizon,
seed)`` — any worker count, chunking or backend sees the same one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..runtime.seeding import substream_seed, substream_sequence
from .routing import UNREACHABLE, accumulate_loads

__all__ = [
    "DUTY_STREAM",
    "FAILURE_STREAM",
    "SEGMENT_STREAM",
    "ChurnModel",
    "ChurnEpoch",
    "ChurnSchedule",
    "ChurnReport",
    "NodeSegment",
]

#: Tag of the per-node duty-cycle factor sub-stream.
DUTY_STREAM = 0x64757479  # "duty"

#: Tag of the per-node failure-time sub-stream.
FAILURE_STREAM = 0x6661696C  # "fail"

#: Tag of the per-(node, epoch) simulation-seed sub-stream.
SEGMENT_STREAM = 0x73656773  # "segs"


@dataclass(frozen=True)
class NodeSegment:
    """One alive stretch of one node: simulate ``duration`` at ``rate``."""

    start_s: float
    duration_s: float
    rate: float
    seed: int


@dataclass(frozen=True)
class ChurnEpoch:
    """A maximal interval over which the alive set is constant."""

    start_s: float
    end_s: float
    alive: tuple[bool, ...]
    parents: tuple[int, ...]
    #: Effective rate per node; ``None`` for dead nodes.
    rates: tuple[float | None, ...]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ChurnReport:
    """What the schedule did — attached to the merged network result."""

    failures: int
    survivors: int
    reparented: int
    unreachable: int


@dataclass(frozen=True)
class ChurnModel:
    """Deterministic churn configuration for a network run.

    Parameters
    ----------
    failure_rate:
        Per-node exponential failure rate (1/s); each node draws one
        failure time, and those landing inside the horizon kill it.
        ``0`` disables failures.
    duty_spread:
        Half-width of the uniform per-node duty-cycle factor: node
        ``i`` senses at ``base_rate × (1 + duty_spread · u_i)`` with
        ``u_i ~ U(-1, 1)``.  ``0`` disables variation.
    max_failures:
        Cap on scheduled failures (earliest-first), bounding the epoch
        count — and hence the per-node segment count — on big
        deployments.

    A model with both knobs at zero is *inert*:
    :meth:`is_active` is false and the network layer falls back to the
    exact legacy single-segment path, so existing runs and result-store
    keys are untouched.
    """

    failure_rate: float = 0.0
    duty_spread: float = 0.0
    max_failures: int = 32

    def __post_init__(self) -> None:
        if self.failure_rate < 0:
            raise ValueError(f"failure_rate must be >= 0, got {self.failure_rate}")
        if not 0 <= self.duty_spread < 1:
            raise ValueError(
                f"duty_spread must be in [0, 1), got {self.duty_spread}"
            )
        if self.max_failures < 0:
            raise ValueError(f"max_failures must be >= 0, got {self.max_failures}")

    def is_active(self) -> bool:
        """Whether this model changes anything at all."""
        return self.failure_rate > 0 or self.duty_spread > 0

    def schedule(
        self,
        topology,
        base_rate: float,
        horizon: float,
        seed: int | None,
    ) -> ChurnSchedule:
        """Precompute the full event schedule for one network run.

        Pure function of its arguments: the duty factors and failure
        times come from tagged sub-streams of ``seed``, the epochs from
        sorting the failures, and the per-epoch trees from
        ``topology.rewire`` — no randomness is left for the workers.
        """
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        n = topology.n_nodes

        if self.duty_spread > 0:
            rng = np.random.default_rng(substream_sequence(seed, DUTY_STREAM))
            duty = 1.0 + self.duty_spread * (2.0 * rng.random(n) - 1.0)
        else:
            duty = np.ones(n)
        own = [float(base_rate * d) for d in duty]

        failures: list[tuple[float, int]] = []
        if self.failure_rate > 0 and self.max_failures > 0:
            rng = np.random.default_rng(substream_sequence(seed, FAILURE_STREAM))
            times = rng.exponential(1.0 / self.failure_rate, n)
            failures = sorted(
                (float(t), i) for i, t in enumerate(times) if t < horizon
            )[: self.max_failures]

        epochs: list[ChurnEpoch] = []
        alive = [True] * n
        boundaries = [0.0, *(t for t, _ in failures), horizon]
        baseline = tuple(topology.tree_parents())
        parents = baseline
        for k in range(len(boundaries) - 1):
            if k > 0:
                alive[failures[k - 1][1]] = False
                parents = tuple(topology.rewire(alive))
            rates = _epoch_rates(parents, own, alive)
            epochs.append(
                ChurnEpoch(
                    start_s=boundaries[k],
                    end_s=boundaries[k + 1],
                    alive=tuple(alive),
                    parents=parents,
                    rates=rates,
                )
            )
        return ChurnSchedule(
            horizon_s=horizon,
            base_rate=base_rate,
            duty=tuple(float(d) for d in duty),
            failures=tuple(failures),
            epochs=tuple(epochs),
            baseline_parents=baseline,
        )


def _epoch_rates(
    parents: tuple[int, ...],
    own: Sequence[float],
    alive: Sequence[bool],
) -> tuple[float | None, ...]:
    """Effective rates on one epoch's tree (``None`` for the dead)."""
    loads = accumulate_loads(parents, own)
    return tuple(
        loads[i] if alive[i] else None for i in range(len(parents))
    )


@dataclass(frozen=True)
class ChurnSchedule:
    """The precomputed, placement-independent outcome of a churn draw."""

    horizon_s: float
    base_rate: float
    duty: tuple[float, ...]
    failures: tuple[tuple[float, int], ...]
    epochs: tuple[ChurnEpoch, ...]
    baseline_parents: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.duty)

    def node_segments(self, node_index: int, node_seed: int) -> tuple[NodeSegment, ...]:
        """The alive ``(rate, duration, seed)`` stretches of one node.

        Each segment's simulation seed is a tagged sub-stream of the
        node's own seed keyed by the epoch index, so it depends only on
        ``(node seed, epoch)`` — never on which chunk or worker runs
        it.  Segments end when the node dies; they cover ``[0, t_fail)``
        or the whole horizon for survivors.
        """
        out = []
        for k, epoch in enumerate(self.epochs):
            rate = epoch.rates[node_index]
            if rate is None or epoch.duration_s <= 0:
                continue
            out.append(
                NodeSegment(
                    start_s=epoch.start_s,
                    duration_s=epoch.duration_s,
                    rate=rate,
                    seed=substream_seed(node_seed, SEGMENT_STREAM, k),
                )
            )
        return tuple(out)

    def failure_time(self, node_index: int) -> float | None:
        """When the node dies, or ``None`` if it survives the run."""
        for t, i in self.failures:
            if i == node_index:
                return t
        return None

    def report(self) -> ChurnReport:
        """Aggregate churn statistics for result summaries."""
        n = self.n_nodes
        reparented: set[int] = set()
        unreachable: set[int] = set()
        for epoch in self.epochs:
            for i in range(n):
                if not epoch.alive[i]:
                    continue
                if epoch.parents[i] == UNREACHABLE:
                    unreachable.add(i)
                elif epoch.parents[i] != self.baseline_parents[i]:
                    reparented.add(i)
        return ChurnReport(
            failures=len(self.failures),
            survivors=n - len(self.failures),
            reparented=len(reparented),
            unreachable=len(unreachable),
        )
