"""Unit tests for reachability-graph construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ReachabilityGraph,
    build_reachability_graph,
    liveness_summary,
)
from repro.core import (
    Deterministic,
    Exponential,
    PetriNet,
    UnboundedNetError,
    tokens_gt,
)
from repro.models import NodeParameters, SimpleNodeModel, WSNNodeModel
from tests.analysis.test_ctmc_conversion import mm1k_net


def ring_net(tokens=1):
    net = PetriNet("ring")
    for i in range(3):
        net.add_place(f"P{i}", initial_tokens=tokens if i == 0 else 0)
    for i in range(3):
        net.add_transition(
            f"t{i}", Deterministic(1.0), inputs=[f"P{i}"], outputs=[f"P{(i+1)%3}"]
        )
    return net


class TestReachability:
    def test_ring_state_count(self):
        rg = build_reachability_graph(ring_net())
        assert rg.n_states == 3
        assert rg.n_edges == 3
        assert rg.strongly_connected()

    def test_two_token_ring(self):
        rg = build_reachability_graph(ring_net(tokens=2))
        # distribute 2 tokens over 3 places: C(4,2) = 6 states
        assert rg.n_states == 6

    def test_bounds(self):
        rg = build_reachability_graph(ring_net(tokens=2))
        assert rg.max_tokens("P0") == 2
        assert rg.bound_vector() == {"P0": 2, "P1": 2, "P2": 2}

    def test_deadlock_detection(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_transition("t", Deterministic(1.0), inputs=["A"], outputs=["B"])
        rg = build_reachability_graph(net)
        assert len(rg.deadlock_states()) == 1
        assert not rg.strongly_connected()

    def test_unbounded_net_raises(self):
        net = PetriNet()
        net.add_place("src", initial_tokens=1)
        net.add_place("q")
        net.add_transition(
            "gen", Exponential(1.0), inputs=["src"], outputs=["src", "q"]
        )
        with pytest.raises(UnboundedNetError):
            build_reachability_graph(net, max_states=50)

    def test_immediate_priority_restricts_successors(self):
        # When an immediate is enabled, timed transitions do not appear
        # as successors (vanishing-marking rule).
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("C")
        net.add_transition("imm", inputs=["A"], outputs=["B"])
        net.add_transition("timed", Deterministic(1.0), inputs=["A"], outputs=["C"])
        rg = build_reachability_graph(net)
        assert rg.fired_transitions() == {"imm"}

    def test_guard_respected(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("G")
        net.add_transition(
            "t", Deterministic(1.0), inputs=["A"], outputs=["B"],
            guard=tokens_gt("G", 0),
        )
        rg = build_reachability_graph(net)
        assert rg.n_states == 1  # guard never satisfiable

    def test_home_states_of_ergodic_ring(self):
        rg = build_reachability_graph(ring_net())
        assert len(rg.home_states()) == 3

    def test_counts_of(self):
        rg = build_reachability_graph(ring_net())
        counts = rg.counts_of(rg.initial)
        assert counts["P0"] == 1

    def test_liveness_via_graph(self):
        rg = build_reachability_graph(ring_net())
        assert rg.is_live_transition("t0")
        assert not rg.is_live_transition("nonexistent")


@st.composite
def random_digraph(draw):
    """Integer-labelled digraph as a :class:`ReachabilityGraph`."""
    n = draw(st.integers(1, 12))
    nodes = [(i,) for i in range(n)]
    edges = {v: {} for v in nodes}
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    )
    for a, b in pairs:
        edges[nodes[a]].setdefault(nodes[b], f"t{a}_{b}")
    states = {v: {"p": v[0]} for v in nodes}
    return ReachabilityGraph(states=states, edges=edges, initial=nodes[0])


def transitive_closure(rg):
    """Reflexive reachability sets by brute force (one search per node)."""
    reach = {}
    for start in rg.edges:
        seen = {start}
        todo = [start]
        while todo:
            for succ in rg.edges[todo.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        reach[start] = seen
    return reach


class TestGraphAlgorithmsAgainstClosure:
    @settings(max_examples=300, deadline=None)
    @given(random_digraph())
    def test_matches_transitive_closure(self, rg):
        reach = transitive_closure(rg)
        nodes = list(rg.edges)
        assert rg.strongly_connected() == all(
            reach[v] == set(nodes) for v in nodes
        )
        assert rg.home_states() == sorted(
            h for h in nodes if all(h in reach[v] for v in nodes)
        )
        assert rg.deadlock_states() == [v for v in nodes if not rg.edges[v]]


class TestLongChain:
    def test_chain_net_needs_no_recursion(self):
        # One place drained token by token: a 5001-state path, deeper
        # than Python's recursion limit for a recursive SCC search.
        n = 5000
        net = PetriNet("chain")
        net.add_place("P", initial_tokens=n)
        net.add_transition("drain", Deterministic(1.0), inputs=["P"])
        rg = build_reachability_graph(net)
        assert rg.n_states == n + 1
        assert rg.n_edges == n
        assert not rg.strongly_connected()
        (final,) = rg.deadlock_states()
        assert rg.counts_of(final) == {"P": 0}
        assert rg.home_states() == [final]


def reset_net():
    net = PetriNet()
    net.add_place("q", initial_tokens=3)
    net.add_place("trigger", initial_tokens=1)
    net.add_place("done")
    net.add_transition(
        "flush", Exponential(1.0), inputs=["trigger"], outputs=["done"],
        resets=["q"],
    )
    return net


def priority_net():
    net = PetriNet()
    net.add_place("A", initial_tokens=1)
    net.add_place("B")
    net.add_place("C")
    net.add_transition("imm", inputs=["A"], outputs=["B"])
    net.add_transition("timed", Deterministic(1.0), inputs=["A"], outputs=["C"])
    return net


def dead_transition_net():
    net = ring_net()
    net.add_place("never")
    net.add_place("sink")
    net.add_transition("dead", Deterministic(1.0), inputs=["never"], outputs=["sink"])
    return net


class TestFixtureNetCensus:
    """State, edge and liveness counts of the suite's bounded nets.

    Recorded with the earlier networkx-backed graph; the dict-and-Tarjan
    graph must give the same census.
    """

    @pytest.mark.parametrize(
        "build, n_states, n_edges, dead, deadlocks",
        [
            (lambda: ring_net(1), 3, 3, set(), 0),
            (lambda: ring_net(2), 6, 9, set(), 0),
            (lambda: ring_net(3), 10, 18, set(), 0),
            (lambda: mm1k_net(K=5), 6, 10, set(), 0),
            (reset_net, 2, 1, set(), 1),
            (priority_net, 2, 1, {"timed"}, 1),
            (dead_transition_net, 3, 3, {"dead"}, 0),
            (lambda: SimpleNodeModel().build(), 5, 5, set(), 0),
            (lambda: WSNNodeModel(NodeParameters()).build(), 39, 46, set(), 0),
        ],
    )
    def test_census(self, build, n_states, n_edges, dead, deadlocks):
        net = build()
        rg = build_reachability_graph(net)
        report = liveness_summary(net, rg=rg)
        assert (rg.n_states, rg.n_edges) == (n_states, n_edges)
        assert report.dead == dead
        assert report.live == set(net.transition_names) - dead
        assert report.deadlock_markings == deadlocks
