"""``geometric_parents`` against a per-node reference search.

The routing tree picks each node's parent one BFS level at a time with
a masked ``argmin``.  The reference below picks it one node at a time
with ``np.lexsort`` over (distance, index), from the full ``[n, n, 2]``
difference array — the definition the tree has always followed.  Both
must return the same tuple on every layout, including exact distance
ties, dead nodes and nodes the search cannot reach.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import SINK, UNREACHABLE, RandomGeometricTopology
from repro.topology.routing import geometric_parents

SINK_XY = np.array([0.5, 0.5])


def reference_parents(positions, sink, radius, alive=None):
    """Nearest frontier relay per reached node, one ``lexsort`` each."""
    n = len(positions)
    alive_mask = (
        np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    )
    delta = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((delta**2).sum(axis=2))
    sink_dist = np.sqrt(((positions - sink) ** 2).sum(axis=1))
    linked = dist <= radius
    np.fill_diagonal(linked, False)
    linked &= alive_mask[:, None] & alive_mask[None, :]

    parents = [UNREACHABLE] * n
    unvisited = alive_mask.copy()
    current = np.nonzero(alive_mask & (sink_dist <= radius))[0]
    for i in current:
        parents[int(i)] = SINK
    unvisited[current] = False
    while current.size:
        cand_rows = linked[:, current]
        reached = np.nonzero(cand_rows.any(axis=1) & unvisited)[0]
        for i in reached:
            js = current[cand_rows[i]]
            best = js[np.lexsort((js, dist[i, js]))[0]]
            parents[int(i)] = int(best)
        unvisited[reached] = False
        current = reached
    return tuple(parents)


def assert_same_tree(positions, radius, alive=None):
    got = geometric_parents(positions, SINK_XY, radius, alive)
    assert got == reference_parents(positions, SINK_XY, radius, alive)
    assert all(type(p) is int for p in got)
    return got


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([0.02, 0.08, 0.15, 0.3, 2.0]),
    snap=st.sampled_from([None, 4, 16]),
    dead_fraction=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_matches_reference_on_random_layouts(n, seed, radius, snap, dead_fraction):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    if snap is not None:
        # Snapped coordinates put many pairs at exactly equal distances.
        positions = np.round(positions * snap) / snap
    alive = None if dead_fraction == 0.0 else rng.random(n) >= dead_fraction
    assert_same_tree(positions, radius, alive)


def test_lattice_ties_break_toward_the_lower_index():
    # A 9x9 lattice of sixteenths around the sink (left out): the
    # coordinates and axis-neighbour distances are exact, so nodes off
    # the axes see two frontier neighbours at exactly equal distance.
    cells = [(x, y) for y in range(4, 13) for x in range(4, 13) if (x, y) != (8, 8)]
    index = {cell: i for i, cell in enumerate(cells)}
    positions = np.array(cells, dtype=float) / 16.0
    for radius in (1 / 16, np.sqrt(2.0) / 16, 0.25):
        parents = assert_same_tree(positions, radius)
        assert UNREACHABLE not in parents
    # (9, 9) is two hops out; (9, 8) and (8, 9) are both 1/16 away and
    # on the frontier, so the lower index wins.
    parents = geometric_parents(positions, SINK_XY, 1 / 16)
    assert parents[index[9, 9]] == min(index[9, 8], index[8, 9])
    assert parents[index[7, 7]] == min(index[7, 8], index[8, 7])


def test_unreachable_node_stays_unreachable():
    positions = np.array([[0.52, 0.5], [0.55, 0.5], [0.95, 0.95], [0.58, 0.5]])
    parents = assert_same_tree(positions, 0.05)
    assert parents == (SINK, 0, UNREACHABLE, 1)
    # Killing the middle relay cuts node 3 off as well.
    parents = assert_same_tree(positions, 0.05, [True, False, True, True])
    assert parents == (SINK, UNREACHABLE, UNREACHABLE, UNREACHABLE)


def test_no_node_reaches_the_sink():
    positions = np.array([[0.0, 0.0], [0.01, 0.0]])
    assert assert_same_tree(positions, 0.1) == (UNREACHABLE, UNREACHABLE)


@pytest.mark.parametrize("dead_every", [None, 3, 7])
def test_thousand_node_deployment_matches_reference(dead_every):
    layout = RandomGeometricTopology(1000, seed=2010)
    alive = None
    if dead_every is not None:
        alive = [i % dead_every != 0 for i in range(1000)]
    assert_same_tree(layout.positions, layout.effective_radius, alive)


def test_thousand_node_tree_is_pinned():
    parents = RandomGeometricTopology(1000, seed=2010).tree_parents()
    assert hashlib.sha256(repr(parents).encode()).hexdigest() == (
        "3008a447b997e828f63de33d36a9ae50f7d4f65b3f4582f24ec084e79fe8fb52"
    )
