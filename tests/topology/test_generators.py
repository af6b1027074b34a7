"""Property-based tests (hypothesis) on the generated topologies.

These pin the generator contracts the scenario-diversity subsystem
rests on: the same seed always reproduces the same deployment (layout,
routing tree and rates), every node has a route to the sink no matter
how unlucky the draw (the retry-or-grow radius policy), and cluster
trees have exactly the shape their parameters promise.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    SINK,
    UNREACHABLE,
    ClusterTreeTopology,
    RandomGeometricTopology,
    auto_radius,
    depths_from_parents,
    validate_parents,
)
from repro.topology import generators
from repro.topology.generators import LAYOUT_MEMO_SIZE, LAYOUT_RETRIES

GALLERY = Path(__file__).resolve().parents[2] / "scenarios"

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(2, 60)


class TestRandomGeometricProperties:
    @given(sizes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_seed_determinism(self, n, seed):
        # Two fresh instances — nothing shared but the constructor args.
        a = RandomGeometricTopology(n, seed=seed)
        b = RandomGeometricTopology(n, seed=seed)
        assert np.array_equal(a.positions, b.positions)
        assert a.tree_parents() == b.tree_parents()
        assert a.effective_radius == b.effective_radius
        assert a.effective_rates(0.3) == b.effective_rates(0.3)

    @given(sizes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_always_sink_connected(self, n, seed):
        topo = RandomGeometricTopology(n, seed=seed)
        parents = topo.tree_parents()
        validate_parents(parents)
        assert UNREACHABLE not in parents
        assert all(d >= 1 for d in depths_from_parents(parents))

    @given(sizes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_traffic_conservation(self, n, seed):
        # Convergecast conservation: everything every node generates
        # arrives at the sink, so the sink-adjacent loads sum to n.
        topo = RandomGeometricTopology(n, seed=seed)
        parents = topo.tree_parents()
        rates = topo.effective_rates(1.0)
        delivered = sum(r for r, p in zip(rates, parents) if p == SINK)
        assert delivered == pytest.approx(n)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_tiny_radius_grows_until_connected(self, seed):
        # A hopeless radius must trigger the documented grow policy,
        # never an error or a disconnected tree.
        topo = RandomGeometricTopology(12, radius=1e-4, seed=seed)
        assert topo.effective_radius > 1e-4
        assert UNREACHABLE not in topo.tree_parents()

    def test_positions_in_unit_square(self):
        topo = RandomGeometricTopology(200, seed=7)
        assert np.all(topo.positions >= 0.0)
        assert np.all(topo.positions <= 1.0)

    def test_distinct_seeds_distinct_layouts(self):
        a = RandomGeometricTopology(30, seed=1)
        b = RandomGeometricTopology(30, seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_describe_names_the_deployment(self):
        text = RandomGeometricTopology(50, seed=3).describe()
        assert "50 nodes" in text
        assert "seed 3" in text

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            RandomGeometricTopology(0)
        with pytest.raises(ValueError):
            RandomGeometricTopology(10, radius=-0.5)

    def test_auto_radius_shrinks_with_density(self):
        assert auto_radius(1000) < auto_radius(100) < auto_radius(10)


@pytest.fixture
def layout_builds(monkeypatch):
    """Counts ``geometric_parents`` calls made to resolve layouts."""
    calls = []
    plain = generators.geometric_parents

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(generators, "geometric_parents", counting)
    return calls


class TestLayoutMemo:
    """One resolved layout per ``(n_nodes, radius, seed)`` per process."""

    def test_equal_arguments_share_one_layout(self, layout_builds):
        a = RandomGeometricTopology(40, radius=0.3, seed=11)
        a.tree_parents()
        layout_builds.clear()
        b = RandomGeometricTopology(40, radius=0.3, seed=11)
        assert b.tree_parents() == a.tree_parents()
        assert b._layout is a._layout
        assert layout_builds == []
        assert not a.positions.flags.writeable

    def test_other_seed_or_radius_does_not_alias(self):
        base = RandomGeometricTopology(40, radius=0.3, seed=11)
        other_seed = RandomGeometricTopology(40, radius=0.3, seed=12)
        other_radius = RandomGeometricTopology(40, radius=0.35, seed=11)
        assert not np.array_equal(base.positions, other_seed.positions)
        assert other_radius.effective_radius == 0.35
        for other in (other_seed, other_radius):
            assert other._layout is not base._layout

    def test_grown_radius_is_memoized(self, layout_builds):
        first = RandomGeometricTopology(12, radius=1e-4, seed=5)
        assert first.effective_radius > 1e-4
        layout_builds.clear()
        again = RandomGeometricTopology(12, radius=1e-4, seed=5)
        assert again.effective_radius == first.effective_radius
        assert again.tree_parents() == first.tree_parents()
        assert layout_builds == []

    def test_int_and_float_radius_keep_their_own_radius(self):
        as_int = RandomGeometricTopology(20, radius=1, seed=3)
        as_float = RandomGeometricTopology(20, radius=1.0, seed=3)
        assert type(as_int.effective_radius) is int
        assert type(as_float.effective_radius) is float

    def test_memo_has_a_fixed_size(self):
        for seed in range(LAYOUT_MEMO_SIZE + 4):
            RandomGeometricTopology(10, seed=1000 + seed).tree_parents()
        info = generators._resolve_layout.cache_info()
        assert info.maxsize == LAYOUT_MEMO_SIZE
        assert info.currsize == LAYOUT_MEMO_SIZE

    def test_second_warm_geo1000_request_builds_no_layout(
        self, tmp_path, capsys, layout_builds
    ):
        pytest.importorskip("yaml", reason="gallery scenarios are YAML")
        from repro.cli import main

        argv = [
            "scenario",
            "run",
            str(GALLERY / "geo1000.yaml"),
            "--smoke",
            "--override",
            f"execution.store_dir={tmp_path}",
            "--override",
            "execution.workers=1",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        layout_builds.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert layout_builds == []


class TestClusterTree:
    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_shape_matches_parameters(self, fanout, depth):
        topo = ClusterTreeTopology(fanout=fanout, depth=depth)
        assert topo.n_nodes == sum(fanout**k for k in range(1, depth + 1))
        parents = topo.tree_parents()
        validate_parents(parents)
        hist = {}
        for d in depths_from_parents(parents):
            hist[d] = hist.get(d, 0) + 1
        assert hist == {k: fanout**k for k in range(1, depth + 1)}

    def test_root_relays_its_whole_subtree(self):
        # fanout 3 / depth 3: each of the 3 cluster heads under the
        # sink relays a 13-node subtree (itself + 3 + 9).
        topo = ClusterTreeTopology(fanout=3, depth=3)
        rates = topo.effective_rates(1.0)
        assert rates[:3] == [13.0, 13.0, 13.0]
        assert rates[-1] == 1.0  # leaves relay nothing

    def test_deterministic_without_seed(self):
        a = ClusterTreeTopology(fanout=2, depth=3)
        b = ClusterTreeTopology(fanout=2, depth=3)
        assert a.tree_parents() == b.tree_parents()

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ClusterTreeTopology(fanout=0, depth=2)
        with pytest.raises(ValueError):
            ClusterTreeTopology(fanout=2, depth=0)
