"""Tests for reset-arc semantics."""

import pytest

from repro.core import (
    Deterministic,
    Exponential,
    PetriNet,
    ResetArc,
    Simulation,
    simulate,
    tokens_gt,
)
from repro.core.errors import ArcError, UnknownElementError


def crash_net(crash_delay=5.0):
    """Jobs queue; a periodic 'crash' flushes the queue."""
    net = PetriNet("crash")
    net.add_place("src", initial_tokens=1)
    net.add_place("q")
    net.add_place("crashes")
    net.add_place("clock", initial_tokens=1)
    net.add_transition(
        "arrive", Deterministic(1.0), inputs=["src"], outputs=["src", "q"]
    )
    net.add_transition(
        "crash",
        Deterministic(crash_delay),
        inputs=["clock"],
        outputs=["clock", "crashes"],
        resets=["q"],
    )
    return net


class TestResetSemantics:
    def test_queue_flushed_on_fire(self):
        # Arrivals at 1..4 queue.  At t=5 'arrive' and 'crash' tie;
        # the calendar's deterministic rank (timed-transition definition
        # order) fires 'arrive' first, so the crash flushes all five.
        result = simulate(crash_net(5.0), horizon=5.5)
        assert result.final_marking_counts["q"] == 0
        assert result.final_marking_counts["crashes"] == 1

    def test_queue_refills_after_crash(self):
        # crash at 5 flushes 1..5 (arrival #5 wins the tie, see above);
        # arrivals 6, 7 remain at t=7.5
        result = simulate(crash_net(5.0), horizon=7.5)
        assert result.final_marking_counts["q"] == 2

    def test_reset_does_not_affect_enabling(self):
        # crash fires even when q is empty
        net = crash_net(0.5)
        result = simulate(net, horizon=0.6)
        assert result.final_marking_counts["crashes"] == 1

    def test_flushed_tokens_reported_to_observers(self):
        net = crash_net(3.5)
        sim = Simulation(net)
        flushed = []
        sim.add_observer(
            lambda t, name, consumed, produced: flushed.append(
                len(consumed.get("q", []))
            )
            if name == "crash"
            else None
        )
        sim.run(4.0)
        assert flushed == [3]  # arrivals at 1,2,3 flushed at 3.5

    def test_reset_then_output_to_same_place(self):
        # reset + output: only the new token survives
        net = PetriNet()
        net.add_place("q", initial_tokens=4)
        net.add_place("go", initial_tokens=1)
        net.add_transition(
            "refresh", Deterministic(1.0), inputs=["go"], outputs=["q"],
            resets=["q"],
        )
        result = simulate(net, horizon=2.0)
        assert result.final_marking_counts["q"] == 1


class TestResetConstruction:
    def test_reset_arc_object_spec(self):
        net = PetriNet()
        net.add_place("a", initial_tokens=1)
        net.add_place("b")
        t = net.add_transition(
            "t", Deterministic(1.0), inputs=["a"], resets=[ResetArc("b")]
        )
        assert t.resets[0].place == "b"

    def test_unknown_place_rejected(self):
        net = PetriNet()
        net.add_place("a", initial_tokens=1)
        with pytest.raises(UnknownElementError):
            net.add_transition("t", Deterministic(1.0), inputs=["a"], resets=["ghost"])

    def test_duplicate_reset_rejected(self):
        net = PetriNet()
        net.add_place("a", initial_tokens=1)
        net.add_place("b")
        with pytest.raises(ArcError):
            net.add_transition(
                "t", Deterministic(1.0), inputs=["a"], resets=["b", "b"]
            )

    def test_bad_spec_rejected(self):
        net = PetriNet()
        net.add_place("a", initial_tokens=1)
        with pytest.raises(ArcError):
            net.add_transition("t", Deterministic(1.0), inputs=["a"], resets=[42])

    def test_reachability_honours_resets(self):
        from repro.analysis import build_reachability_graph

        net = PetriNet()
        net.add_place("q", initial_tokens=3)
        net.add_place("trigger", initial_tokens=1)
        net.add_place("done")
        net.add_transition(
            "flush", Exponential(1.0), inputs=["trigger"], outputs=["done"],
            resets=["q"],
        )
        rg = build_reachability_graph(net)
        final = [counts for counts in rg.states.values() if counts["done"] == 1]
        assert final and all(c["q"] == 0 for c in final)
