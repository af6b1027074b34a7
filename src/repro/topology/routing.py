"""Convergecast-tree helpers shared by generators and dynamics.

Every topology in this package (and the hand-built ones in
:mod:`repro.models.network`) routes traffic along a *convergecast
tree*: each node has exactly one parent on its path to the sink.  The
tree is the whole routing state, so it is represented as a flat parent
array — ``parents[i]`` is the 0-based index of node ``i``'s parent,
:data:`SINK` for nodes that talk to the sink directly, and
:data:`UNREACHABLE` for nodes cut off from the sink (only possible
after churn removes their relays).

All helpers here are pure functions of that array; they are the single
implementation used for relay-load assignment, depth histograms and
churn rewiring, which is what keeps generated topologies, the
hand-built ones and the dynamics layer numerically consistent with
each other.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "SINK",
    "UNREACHABLE",
    "validate_parents",
    "depths_from_parents",
    "accumulate_loads",
    "climb_rewire",
    "geometric_parents",
]

#: Parent value for nodes linked directly to the sink.
SINK = -1

#: Parent value for nodes with no live path to the sink.
UNREACHABLE = -2


def validate_parents(parents: Sequence[int]) -> None:
    """Check a parent array encodes a forest rooted at the sink.

    Rejects out-of-range parents, self-loops and cycles.  Nodes marked
    :data:`UNREACHABLE` are allowed (they are islands, not tree
    members).
    """
    n = len(parents)
    for i, p in enumerate(parents):
        if p == i:
            raise ValueError(f"node {i} is its own parent")
        if p not in (SINK, UNREACHABLE) and not 0 <= p < n:
            raise ValueError(f"node {i} has out-of-range parent {p}")
    depths_from_parents(parents)  # raises on cycles


def depths_from_parents(parents: Sequence[int]) -> list[int]:
    """Hop count to the sink per node (1 = sink-adjacent).

    :data:`UNREACHABLE` nodes get depth 0; a cycle (which would mean a
    corrupt routing tree) raises ``ValueError``.
    """
    n = len(parents)
    depths = [0] * n
    for start in range(n):
        hops = 0
        node = start
        while node not in (SINK, UNREACHABLE):
            hops += 1
            if hops > n:
                raise ValueError(f"cycle in parent array involving node {start}")
            node = parents[node]
        depths[start] = hops if node == SINK else 0
    return depths


def accumulate_loads(
    parents: Sequence[int], own: Sequence[float]
) -> list[float]:
    """Per-node relayed load: subtree sum of ``own`` rates.

    Node ``i`` handles its own event rate plus everything its subtree
    generates — the convergecast traffic model behind
    :meth:`~repro.models.network.NetworkTopology.effective_rates`.
    With ``own = [1, 1, ...]`` the result is the subtree *size*.
    :data:`UNREACHABLE` nodes keep their own rate only and contribute
    nothing downstream (their packets have nowhere to go).
    """
    if len(own) != len(parents):
        raise ValueError(
            f"own rates ({len(own)}) and parents ({len(parents)}) differ in length"
        )
    depths = depths_from_parents(parents)
    loads = [float(r) for r in own]
    # Children must flush before their parents: walk deepest-first.
    order = sorted(range(len(parents)), key=lambda i: depths[i], reverse=True)
    for i in order:
        p = parents[i]
        if p >= 0 and depths[i] > 0:
            loads[p] += loads[i]
    return loads


def climb_rewire(
    parents: Sequence[int], alive: Sequence[bool]
) -> tuple[int, ...]:
    """Re-parent survivors to their nearest live *ancestor*.

    The default battery-death rewiring policy: when a relay dies, each
    orphaned node climbs its original parent chain until it finds a
    live ancestor (ultimately the mains-powered sink, so survivors are
    always reconnected).  This preserves the deployment's routing
    structure — geometry-aware topologies override it with a true
    recompute (see
    :meth:`~repro.topology.generators.RandomGeometricTopology.rewire`).

    Dead nodes are marked :data:`UNREACHABLE` in the returned array.
    """
    if len(alive) != len(parents):
        raise ValueError(
            f"alive ({len(alive)}) and parents ({len(parents)}) differ in length"
        )
    out = []
    for i, p in enumerate(parents):
        if not alive[i]:
            out.append(UNREACHABLE)
            continue
        hops = 0
        while p not in (SINK, UNREACHABLE) and not alive[p]:
            hops += 1
            if hops > len(parents):
                raise ValueError(f"cycle in parent array involving node {i}")
            p = parents[p]
        out.append(p)
    return tuple(out)


def geometric_parents(
    positions: np.ndarray,
    sink: np.ndarray,
    radius: float,
    alive: Sequence[bool] | None = None,
) -> tuple[int, ...]:
    """Shortest-path-to-sink parents over a unit-disk graph.

    Runs a breadth-first search from the sink across all ``alive``
    nodes whose pairwise (or node–sink) distance is within ``radius``.
    Each reached node's parent is its *nearest* neighbour one hop
    closer to the sink — "nearest live relay" — with the node index as
    the final tie-break, so the tree is a deterministic function of
    ``(positions, radius, alive)``.  Nodes the search cannot reach are
    :data:`UNREACHABLE`; dead nodes are too.
    """
    n = len(positions)
    alive_mask = (
        np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    )
    # Pairwise distances, built in place from the per-axis differences
    # so that no [n, n, 2] array is allocated.
    dist = np.subtract.outer(positions[:, 0], positions[:, 0])
    dy = np.subtract.outer(positions[:, 1], positions[:, 1])
    dist *= dist
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    sink_dist = np.sqrt(((positions - sink) ** 2).sum(axis=1))
    linked = dist <= radius
    np.fill_diagonal(linked, False)
    linked &= alive_mask[:, None]
    linked &= alive_mask[None, :]

    parents = np.full(n, UNREACHABLE)
    unvisited = alive_mask.copy()
    current = np.nonzero(alive_mask & (sink_dist <= radius))[0]
    parents[current] = SINK
    unvisited[current] = False
    while current.size:
        # ``linked`` is symmetric, so the frontier's rows name every
        # node one hop out.
        reached = np.nonzero(linked[current].any(axis=0) & unvisited)[0]
        # One masked argmin picks every parent on this level: the
        # frontier is in ascending index order, so the first minimum is
        # the nearest relay with the lowest index winning ties.
        block = np.ix_(reached, current)
        near = np.where(linked[block], dist[block], np.inf)
        parents[reached] = current[near.argmin(axis=1)]
        unvisited[reached] = False
        current = reached
    return tuple(parents.tolist())
