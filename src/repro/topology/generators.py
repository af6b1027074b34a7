"""Generated topologies: random geometric deployments and cluster trees.

The paper's network section hand-builds three topologies (line, star,
grid).  This module generates the two families that cover realistic
deployments at 1000+ node scale:

* :class:`RandomGeometricTopology` — N nodes dropped uniformly in the
  unit square with a mains-powered sink at the centre, linked when
  within a connectivity ``radius``, routed along the
  shortest-path-to-sink tree (ties broken toward the nearest relay).
  The layout is drawn from a *dedicated* tagged
  :class:`~numpy.random.SeedSequence` sub-stream of the topology seed,
  so it can never collide with (or perturb) the per-node simulation
  streams derived from the same run seed.
* :class:`ClusterTreeTopology` — the classic cluster-head hierarchy: a
  complete ``fanout``-ary tree of ``depth`` levels below the sink,
  where every interior node is a cluster head relaying its subtree.

Both are frozen dataclasses: seed-deterministic (equal construction
arguments give bit-identical adjacency and rates), cheap to hash into
result-store keys, and safe to share across workers.

Connectivity policy (documented contract)
-----------------------------------------
A random geometric graph at a tight radius can come out disconnected.
:class:`RandomGeometricTopology` guarantees a sink-connected result
with a *retry-or-grow* policy: it draws up to :data:`LAYOUT_RETRIES`
independent layouts at the requested radius (each from its own tagged
sub-stream, so the sequence of attempts is itself deterministic); if
none connects, it keeps the first layout and grows the radius by
:data:`RADIUS_GROWTH` per step until every node reaches the sink.
Growth terminates because a radius covering the centre sink from the
far corner (``√2/2``) connects everything directly.  The radius that
actually shipped is exposed as :attr:`effective_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..models.network import NetworkTopology
from ..runtime.seeding import substream_sequence
from .routing import (
    SINK,
    UNREACHABLE,
    accumulate_loads,
    geometric_parents,
)

__all__ = [
    "LAYOUT_STREAM",
    "LAYOUT_RETRIES",
    "LAYOUT_MEMO_SIZE",
    "RADIUS_GROWTH",
    "RandomGeometricTopology",
    "ClusterTreeTopology",
    "auto_radius",
]

#: Tag of the topology-layout seed sub-stream (see
#: :func:`repro.runtime.seeding.substream_sequence`).
LAYOUT_STREAM = 0x746F706F  # "topo"

#: Fresh layouts attempted at the requested radius before growing it.
LAYOUT_RETRIES = 3

#: Radius growth factor per step once retries are exhausted.
RADIUS_GROWTH = 1.3

#: Resolved layouts a process keeps (see :func:`_resolve_layout`).
LAYOUT_MEMO_SIZE = 8


def auto_radius(n_nodes: int) -> float:
    """Default connectivity radius for ``n_nodes`` in the unit square.

    The classic random-geometric-graph connectivity threshold scales as
    ``sqrt(log n / (π n))``; the factor 2 under the root keeps the
    graph connected with comfortable probability at every practical
    ``n``, while still thinning toward the theoretical optimum as the
    deployment densifies (≈ 0.066 at n = 1000).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return math.sqrt(2.0 * math.log(n_nodes + 1) / (math.pi * n_nodes))


@dataclass(frozen=True)
class _GeometricLayout:
    """Resolved deployment: positions plus the connected routing tree."""

    positions: np.ndarray
    sink: np.ndarray
    radius: float
    parents: tuple[int, ...]
    attempt: int


def _draw_positions(n_nodes: int, seed: int, attempt: int) -> np.ndarray:
    rng = np.random.default_rng(substream_sequence(seed, LAYOUT_STREAM, attempt))
    positions = rng.random((n_nodes, 2))
    positions.setflags(write=False)  # shared by every topology of the memo
    return positions


@lru_cache(maxsize=LAYOUT_MEMO_SIZE, typed=True)
def _resolve_layout(n_nodes: int, radius: float | None, seed: int) -> _GeometricLayout:
    """Deterministic retry-or-grow resolution of a deployment.

    A pure function of its arguments, memoized per process: warm
    requests, the threshold models of a sweep and churn rewiring
    share one layout instead of redrawing it (two ``n x n`` distance
    matrices and a BFS per call of
    :func:`~repro.topology.routing.geometric_parents`).  ``typed``
    keeps ``radius=1`` and ``radius=1.0`` apart, so a layout's
    :attr:`radius` is always the one its own arguments give.
    """
    sink = np.array([0.5, 0.5])
    sink.setflags(write=False)
    base_radius = radius if radius is not None else auto_radius(n_nodes)
    first: np.ndarray | None = None
    for attempt in range(LAYOUT_RETRIES):
        positions = _draw_positions(n_nodes, seed, attempt)
        if first is None:
            first = positions
        parents = geometric_parents(positions, sink, base_radius)
        if UNREACHABLE not in parents:
            return _GeometricLayout(positions, sink, base_radius, parents, attempt)
    # Keep the first deployment, grow the radius until connected.
    assert first is not None
    grown = base_radius
    while True:
        grown *= RADIUS_GROWTH
        parents = geometric_parents(first, sink, grown)
        if UNREACHABLE not in parents:
            return _GeometricLayout(first, sink, grown, parents, 0)


@dataclass(frozen=True)
class RandomGeometricTopology(NetworkTopology):
    """Uniform random deployment routed shortest-path to a centre sink.

    Parameters
    ----------
    n_nodes:
        Battery-powered nodes dropped in the unit square (the sink at
        ``(0.5, 0.5)`` is mains-powered and not counted).
    radius:
        Connectivity radius; ``None`` uses :func:`auto_radius`.  The
        retry-or-grow policy (module docstring) may ship a larger
        :attr:`effective_radius`.
    seed:
        Layout seed.  Positions come from the tagged
        ``(seed, LAYOUT_STREAM, attempt)`` sub-stream — independent of
        every per-node simulation stream derived from the run seed.
    """

    n_nodes: int
    radius: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.radius is not None and self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @cached_property
    def _layout(self) -> _GeometricLayout:
        """The deployment, from the per-process :func:`_resolve_layout`."""
        return _resolve_layout(self.n_nodes, self.radius, self.seed)

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates in the unit square (row per node)."""
        return self._layout.positions

    @property
    def effective_radius(self) -> float:
        """The radius actually used (>= ``radius`` if growth kicked in)."""
        return self._layout.radius

    def tree_parents(self) -> tuple[int, ...]:
        return self._layout.parents

    def rewire(self, alive) -> tuple[int, ...]:
        """True geometric rewiring: BFS over the surviving disk graph.

        Unlike the generic climb-the-ancestors default, orphaned nodes
        re-parent to their *nearest live relay* within radio range —
        survivors with no live path to the sink become
        :data:`~repro.topology.routing.UNREACHABLE` and keep only
        their own sensing load.
        """
        lay = self._layout
        return geometric_parents(lay.positions, lay.sink, lay.radius, alive)

    def effective_rates(self, base_rate: float) -> list[float]:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        return accumulate_loads(
            self._layout.parents, [base_rate] * self.n_nodes
        )

    def describe(self) -> str:
        return (
            f"random geometric deployment of {self.n_nodes} nodes "
            f"(radius {self.effective_radius:.4f}, centre sink, "
            f"seed {self.seed})"
        )


@dataclass(frozen=True)
class ClusterTreeTopology(NetworkTopology):
    """Complete ``fanout``-ary cluster-head tree of ``depth`` levels.

    Level 1 holds ``fanout`` cluster heads adjacent to the sink, level
    ``k`` holds ``fanout**k`` nodes; ``n_nodes = Σ fanout**k``.  Nodes
    are indexed breadth-first (level by level), so node 1 is the first
    sink-adjacent head and the deepest leaves come last.  Every
    interior node relays its complete subtree — the hierarchical
    aggregation structure of cluster-based WSN protocols.
    """

    fanout: int
    depth: int

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    @property
    def n_nodes(self) -> int:  # type: ignore[override]
        return sum(self.fanout**k for k in range(1, self.depth + 1))

    def tree_parents(self) -> tuple[int, ...]:
        parents: list[int] = [SINK] * self.fanout
        level_start = 0
        level_size = self.fanout
        for _ in range(2, self.depth + 1):
            next_start = level_start + level_size
            next_size = level_size * self.fanout
            parents.extend(
                level_start + j // self.fanout for j in range(next_size)
            )
            level_start, level_size = next_start, next_size
        return tuple(parents)

    def effective_rates(self, base_rate: float) -> list[float]:
        if base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        return accumulate_loads(self.tree_parents(), [base_rate] * self.n_nodes)

    def describe(self) -> str:
        return (
            f"cluster tree of {self.n_nodes} nodes "
            f"(fanout {self.fanout}, depth {self.depth})"
        )
