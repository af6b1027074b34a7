"""Unit + behavioural tests for the simulation engine."""

import numpy as np
import pytest

from repro.core import (
    DeadlockError,
    Deterministic,
    Exponential,
    ImmediateLoopError,
    Immediate,
    INFINITE_SERVERS,
    MemoryPolicy,
    PetriNet,
    Simulation,
    simulate,
    tokens_eq,
    tokens_gt,
)

#: What every engine says of a horizon that is not > 0 and finite.
_BAD_HORIZON = "horizon must be > 0 and finite"


def chain_net(delay=1.0):
    """A -> B -> C with two deterministic transitions."""
    net = PetriNet("chain")
    net.add_place("A", initial_tokens=1)
    net.add_place("B")
    net.add_place("C")
    net.add_transition("ab", Deterministic(delay), inputs=["A"], outputs=["B"])
    net.add_transition("bc", Deterministic(delay), inputs=["B"], outputs=["C"])
    return net


class TestBasicTokenGame:
    def test_deterministic_chain_fires_in_order(self):
        result = simulate(chain_net(), horizon=10.0, seed=0)
        assert result.final_marking_counts == {"A": 0, "B": 0, "C": 1}
        assert result.firings == 2

    def test_dwell_times_exact_for_deterministic_chain(self):
        result = simulate(chain_net(delay=2.0), horizon=10.0, seed=0)
        # A marked [0,2), B [2,4), C [4,10)
        assert result.occupancy("A") == pytest.approx(0.2)
        assert result.occupancy("B") == pytest.approx(0.2)
        assert result.occupancy("C") == pytest.approx(0.6)

    def test_immediate_fires_in_zero_time(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_transition("t", inputs=["A"], outputs=["B"])
        result = simulate(net, horizon=5.0)
        assert result.occupancy("A") == pytest.approx(0.0)
        assert result.occupancy("B") == pytest.approx(1.0)

    def test_multiplicity_consumption(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=4)
        net.add_place("B")
        net.add_transition(
            "t", Deterministic(1.0), inputs=[("A", 2)], outputs=["B"]
        )
        result = simulate(net, horizon=10.0)
        # fires twice (4 tokens / 2 per firing), single server => t=1, 2
        assert result.final_marking_counts == {"A": 0, "B": 2}
        assert result.firings == 2

    def test_deadlock_detection_stop(self):
        result = simulate(chain_net(), horizon=100.0)
        assert result.deadlocked
        assert result.end_time == 100.0  # frozen marking integrates to horizon

    def test_deadlock_raise_mode(self):
        net = chain_net()
        sim = Simulation(net, on_deadlock="raise")
        with pytest.raises(DeadlockError):
            sim.run(100.0)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            simulate(chain_net(), horizon=0.0)
        # NaN or infinity would never end the event loop.
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="horizon"):
                Simulation(chain_net(), seed=0).run(horizon)

    @pytest.mark.parametrize(
        "horizon, message",
        [
            pytest.param(float("nan"), _BAD_HORIZON, id="nan"),
            pytest.param(float("inf"), _BAD_HORIZON, id="inf"),
            # One horizon per row: every row's must be valid ...
            pytest.param([5.0, 0.0], _BAD_HORIZON, id="row-zero"),
            pytest.param([-1.0, 5.0], _BAD_HORIZON, id="row-negative"),
            pytest.param([5.0, float("nan")], _BAD_HORIZON, id="row-nan"),
            pytest.param([float("inf"), 5.0], _BAD_HORIZON, id="row-inf"),
            # ... and there must be exactly one per row.
            pytest.param([5.0], "horizon has 1 values for 2 rows", id="short"),
            pytest.param([5.0] * 3, "horizon has 3 values for 2 rows", id="long"),
            pytest.param([[5.0, 5.0]], "horizon has 2 values", id="2-d"),
        ],
    )
    def test_vectorized_kernel_rejects_non_finite_horizon(self, horizon, message):
        from repro.core.fast import run_ensemble

        with pytest.raises(ValueError, match=message):
            run_ensemble(chain_net(), horizon, [0, 1])

    def test_max_firings_stops_early(self):
        net = PetriNet()
        net.add_place("P", initial_tokens=1)
        net.add_transition("loop", Deterministic(1.0), inputs=["P"], outputs=["P"])
        sim = Simulation(net)
        result = sim.run(1000.0, max_firings=5)
        assert result.firings == 5
        assert result.end_time == pytest.approx(5.0)


class TestImmediateSemantics:
    def test_priority_order(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("LO")
        net.add_place("HI")
        net.add_transition("lo", inputs=["A"], outputs=["LO"], priority=1)
        net.add_transition("hi", inputs=["A"], outputs=["HI"], priority=9)
        result = simulate(net, horizon=1.0, seed=1)
        assert result.final_marking_counts["HI"] == 1
        assert result.final_marking_counts["LO"] == 0

    def test_weighted_tie_break(self):
        wins = {"x": 0, "y": 0}
        for seed in range(300):
            net = PetriNet()
            net.add_place("A", initial_tokens=1)
            net.add_place("X")
            net.add_place("Y")
            net.add_transition("x", inputs=["A"], outputs=["X"], weight=3.0)
            net.add_transition("y", inputs=["A"], outputs=["Y"], weight=1.0)
            r = simulate(net, horizon=1.0, seed=seed)
            if r.final_marking_counts["X"]:
                wins["x"] += 1
            else:
                wins["y"] += 1
        # expected 3:1 split
        assert 0.6 < wins["x"] / 300 < 0.9

    def test_vanishing_loop_detected(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_transition("ab", inputs=["A"], outputs=["B"])
        net.add_transition("ba", inputs=["B"], outputs=["A"])
        sim = Simulation(net, max_immediate_firings=100)
        with pytest.raises(ImmediateLoopError):
            sim.run(1.0)

    def test_guard_blocks_immediate(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("G")
        net.add_transition(
            "t", inputs=["A"], outputs=["B"], guard=tokens_gt("G", 0)
        )
        result = simulate(net, horizon=1.0)
        assert result.final_marking_counts["A"] == 1  # guard never true


class TestTimedSemantics:
    def test_enabling_memory_resets_timer(self):
        # PDT-style: timer disabled by guard before expiry must restart.
        net = PetriNet()
        net.add_place("Idle", initial_tokens=1)
        net.add_place("Sleep")
        net.add_place("Job")
        net.add_place("Src", initial_tokens=1)
        # A job arrives at t=1 (deterministic), is serviced at t=2.
        net.add_transition("arrive", Deterministic(1.0), inputs=["Src"], outputs=["Job"])
        net.add_transition("serve", Deterministic(1.0), inputs=["Job"])
        # PDT of 1.5s, guard no jobs: enabled [0,1) then [2, 3.5)
        net.add_transition(
            "pdt",
            Deterministic(1.5),
            inputs=["Idle"],
            outputs=["Sleep"],
            guard=tokens_eq("Job", 0),
            memory=MemoryPolicy.ENABLING,
        )
        result = simulate(net, horizon=10.0)
        # With enabling memory the timer restarts at t=2 -> fires 3.5.
        assert result.occupancy("Sleep") == pytest.approx((10 - 3.5) / 10)

    def test_age_memory_resumes_timer(self):
        net = PetriNet()
        net.add_place("Idle", initial_tokens=1)
        net.add_place("Sleep")
        net.add_place("Job")
        net.add_place("Src", initial_tokens=1)
        net.add_transition("arrive", Deterministic(1.0), inputs=["Src"], outputs=["Job"])
        net.add_transition("serve", Deterministic(1.0), inputs=["Job"])
        net.add_transition(
            "pdt",
            Deterministic(1.5),
            inputs=["Idle"],
            outputs=["Sleep"],
            guard=tokens_eq("Job", 0),
            memory=MemoryPolicy.AGE,
        )
        result = simulate(net, horizon=10.0)
        # Age memory: 1.0s consumed before preemption, 0.5s after resume
        # at t=2 -> fires at 2.5.
        assert result.occupancy("Sleep") == pytest.approx((10 - 2.5) / 10)

    def test_exponential_race_two_transitions(self):
        # Two exponential competitors from the same place: winner
        # probability proportional to rate.
        wins = 0
        trials = 400
        for seed in range(trials):
            net = PetriNet()
            net.add_place("A", initial_tokens=1)
            net.add_place("X")
            net.add_place("Y")
            net.add_transition("x", Exponential(3.0), inputs=["A"], outputs=["X"])
            net.add_transition("y", Exponential(1.0), inputs=["A"], outputs=["Y"])
            r = simulate(net, horizon=100.0, seed=seed)
            if r.final_marking_counts["X"]:
                wins += 1
        assert 0.67 < wins / trials < 0.83  # expect 0.75

    def test_single_server_serialises(self):
        net = PetriNet()
        net.add_place("Q", initial_tokens=3)
        net.add_place("Done")
        net.add_transition(
            "serve", Deterministic(1.0), inputs=["Q"], outputs=["Done"]
        )
        result = simulate(net, horizon=10.0)
        # single server: completions at 1, 2, 3
        assert result.final_marking_counts["Done"] == 3
        assert result.mean_tokens("Q") == pytest.approx((3 + 2 + 1) / 10.0)

    def test_infinite_server_parallelises(self):
        net = PetriNet()
        net.add_place("Q", initial_tokens=3)
        net.add_place("Done")
        net.add_transition(
            "serve",
            Deterministic(1.0),
            inputs=["Q"],
            outputs=["Done"],
            servers=INFINITE_SERVERS,
        )
        result = simulate(net, horizon=10.0)
        # all three complete at t=1
        assert result.final_marking_counts["Done"] == 3
        assert result.mean_tokens("Q") == pytest.approx(3 * 1.0 / 10.0)

    def test_k_server_cap(self):
        net = PetriNet()
        net.add_place("Q", initial_tokens=4)
        net.add_place("Done")
        net.add_transition(
            "serve", Deterministic(1.0), inputs=["Q"], outputs=["Done"], servers=2
        )
        result = simulate(net, horizon=10.0)
        # two at a time: completions at 1,1,2,2
        assert result.final_marking_counts["Done"] == 4
        assert result.mean_tokens("Q") == pytest.approx((4 + 2) * 1.0 / 10.0)

    def test_inhibitor_blocks(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("Block", initial_tokens=1)
        net.add_transition(
            "t", Deterministic(1.0), inputs=["A"], outputs=["B"],
            inhibitors=["Block"],
        )
        result = simulate(net, horizon=5.0)
        assert result.final_marking_counts["B"] == 0

    def test_inhibitor_releases(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("Block", initial_tokens=1)
        net.add_transition("unblock", Deterministic(2.0), inputs=["Block"])
        net.add_transition(
            "t", Deterministic(1.0), inputs=["A"], outputs=["B"],
            inhibitors=["Block"],
        )
        result = simulate(net, horizon=10.0)
        # Block leaves at t=2; t fires at 3.
        assert result.final_marking_counts["B"] == 1
        assert result.occupancy("B") == pytest.approx(0.7)


class TestColoredSemantics:
    def test_color_filter_dispatch(self):
        from repro.core import color_eq
        net = PetriNet()
        net.add_place("Jobs")
        net.add_place("Src", initial_tokens=1)
        net.add_place("Fast")
        net.add_place("Slow")
        # alternate colors 1, 2 via producer
        counter = {"n": 0}

        def color_producer(ctx):
            counter["n"] += 1
            return 1 if counter["n"] % 2 else 2

        net.add_transition(
            "gen", Deterministic(1.0), inputs=["Src"],
            outputs=["Src", ("Jobs", 1, color_producer)],
        )
        net.add_transition(
            "fast", Deterministic(0.1),
            inputs=[("Jobs", 1, color_eq(1))], outputs=["Fast"],
        )
        net.add_transition(
            "slow", Deterministic(0.1),
            inputs=[("Jobs", 1, color_eq(2))], outputs=["Slow"],
        )
        result = simulate(net, horizon=10.5)
        assert result.final_marking_counts["Fast"] == 5
        assert result.final_marking_counts["Slow"] == 5

    def test_color_forwarding_through_chain(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=0)
        net.add_place("B")
        net.add_place("Src", initial_tokens=1)
        net.add_transition(
            "gen", Deterministic(1.0), inputs=["Src"], outputs=[("A", 1, 42)]
        )
        net.add_transition("move", Deterministic(1.0), inputs=["A"], outputs=["B"])
        sim = Simulation(net)
        colors = []
        sim.add_observer(
            lambda t, name, consumed, produced: colors.extend(
                tok.color for tok in produced
            )
        )
        sim.run(3.0)
        assert 42 in colors  # forwarded from A to B


class TestStatisticsIntegration:
    def test_predicate_tracking(self):
        net = chain_net(delay=2.0)
        sim = Simulation(net)
        sim.add_predicate("ab_or_b", lambda v: v.count("B") > 0)
        result = sim.run(10.0)
        assert result.predicate_probability("ab_or_b") == pytest.approx(0.2)

    def test_signal_batch_means(self):
        net = PetriNet()
        net.add_place("P", initial_tokens=1)
        net.add_transition("loop", Deterministic(1.0), inputs=["P"], outputs=["P"])
        sim = Simulation(net)
        sim.track_signal("tokens", lambda v: float(v.count("P")), horizon=10.0)
        result = sim.run(10.0)
        ci = result.batch_means["tokens"].interval()
        assert ci.mean == pytest.approx(1.0)

    def test_reproducibility_same_seed(self):
        def run(seed):
            net = PetriNet()
            net.add_place("src", initial_tokens=1)
            net.add_place("q")
            net.add_transition("a", Exponential(1.0), inputs=["src"], outputs=["src", "q"])
            net.add_transition("s", Exponential(1.5), inputs=["q"])
            return simulate(net, horizon=500.0, seed=seed)

        r1, r2 = run(7), run(7)
        assert r1.firings == r2.firings
        assert r1.mean_tokens("q") == pytest.approx(r2.mean_tokens("q"))

    def test_different_seeds_differ(self):
        def run(seed):
            net = PetriNet()
            net.add_place("src", initial_tokens=1)
            net.add_place("q")
            net.add_transition("a", Exponential(1.0), inputs=["src"], outputs=["src", "q"])
            net.add_transition("s", Exponential(1.5), inputs=["q"])
            return simulate(net, horizon=500.0, seed=seed)

        assert run(1).firings != run(2).firings


class TestMM1Validation:
    """The engine must reproduce M/M/1 theory (cross-validation anchor)."""

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    def test_mean_queue_length(self, rho):
        lam, mu = rho, 1.0
        net = PetriNet()
        net.add_place("src", initial_tokens=1)
        net.add_place("q")
        net.add_transition("arrive", Exponential(lam), inputs=["src"], outputs=["src", "q"])
        net.add_transition("serve", Exponential(mu), inputs=["q"])
        result = simulate(net, horizon=80_000.0, seed=42, warmup=2000.0)
        expected = rho / (1 - rho)
        assert result.mean_tokens("q") == pytest.approx(expected, rel=0.08)
        assert result.occupancy("q") == pytest.approx(rho, rel=0.05)


class TestDeterministicTieOrder:
    """Equal-time firings resolve by timed-transition definition order.

    The ``EventCalendar`` rank hook (see ``repro.core.events``) makes
    simultaneous events pop by (definition order, server slot) instead
    of schedule insertion order — the policy the vectorized engine's
    first-occurrence argmin applies for free.
    """

    def test_definition_order_beats_schedule_order(self):
        net = PetriNet("tie")
        # "first" is *defined* first but *scheduled* last: it only
        # enables at t=3 (when "feed" delivers B) yet its firing time
        # ties with "second" at t=5.  Insertion order would fire
        # "second" first; definition-order rank fires "first" first.
        net.add_place("B")
        net.add_place("C")
        net.add_place("S", initial_tokens=1)
        net.add_place("D")
        net.add_place("A", initial_tokens=1)
        net.add_transition("first", Deterministic(2.0), inputs=["B"], outputs=["C"])
        net.add_transition("second", Deterministic(5.0), inputs=["S"], outputs=["D"])
        net.add_transition("feed", Deterministic(3.0), inputs=["A"], outputs=["B"])
        sim = Simulation(net)
        order = []
        sim.add_observer(lambda t, name, consumed, produced: order.append((t, name)))
        sim.run(10.0)
        assert order == [(3.0, "feed"), (5.0, "first"), (5.0, "second")]

    def test_tie_order_is_stable_across_runs(self):
        def run_once():
            net = PetriNet("tie2")
            net.add_place("P", initial_tokens=3)
            net.add_place("Q")
            net.add_transition("a", Deterministic(4.0), inputs=["P"], outputs=["Q"])
            net.add_transition("b", Deterministic(4.0), inputs=["P"], outputs=["Q"])
            sim = Simulation(net)
            order = []
            sim.add_observer(lambda t, name, c, p: order.append(name))
            sim.run(4.0)
            return order

        assert run_once() == run_once() == ["a", "b"]


class TestStaleSchedule:
    """Regression: a popped event whose transition went stale.

    The engine's own invariant is scheduled => enabled, but a caller
    mutating the calendar (or marking) directly can break it.  The
    defensive branch in ``Simulation.step()`` must treat the stale pop
    as a non-firing event: advance the clock, sample statistics at the
    new time, count it in ``stale_pops`` — never silently skip the
    epoch.
    """

    @staticmethod
    def _net():
        net = PetriNet("stale")
        net.add_place("P", initial_tokens=1)
        net.add_place("Q")
        net.add_place("Empty")
        net.add_place("R")
        net.add_transition("go", Deterministic(5.0), inputs=["P"], outputs=["Q"])
        net.add_transition("never", Deterministic(1.0), inputs=["Empty"], outputs=["R"])
        return net

    def _stale_sim(self):
        sim = Simulation(self._net())
        # Initialize first so _refresh_timed can't cancel the bogus
        # entry before the run starts, then violate the invariant by
        # scheduling the disabled transition directly.
        sim._initialize()
        assert not sim.calendar.is_scheduled("never#0")
        sim.calendar.schedule("never#0", 2.0)
        return sim

    def test_stale_pop_advances_clock(self):
        sim = self._stale_sim()
        assert sim.step()  # pops the bogus never#0 event
        assert sim.time == 2.0
        assert sim.stale_pops == 1
        assert sim.firings == 0  # a stale pop is not a firing

    def test_stale_pop_keeps_statistics_in_sync(self):
        sim = self._stale_sim()
        result = sim.run(10.0)
        assert sim.stale_pops == 1
        assert result.firings == 1  # only "go", at t=5
        assert result.stats.firing_count("never") == 0
        # Time-weighted occupancies must be exact despite the stale
        # epoch at t=2: P holds its token for [0, 5) of the 10 s run.
        assert result.occupancy("P") == pytest.approx(0.5)
        assert result.occupancy("Q") == pytest.approx(0.5)
        assert result.final_marking_counts["Q"] == 1

    def test_clean_run_has_no_stale_pops(self):
        sim = Simulation(self._net())
        sim.run(10.0)
        assert sim.stale_pops == 0
