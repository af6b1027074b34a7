"""Vectorized-vs-interpreted engine equivalence (the engine contract).

``repro.core.fast`` promises bit-identity with the interpreted engine
for nets inside its compilable subset.  This suite is that promise's
enforcement:

* :data:`EQUIVALENCE_MODE` declares the shipped equivalence mode for
  every paper model — asserted explicitly per model, never silently
  assumed.  All four models ship ``"bit-identical"``; if an engine
  change ever downgrades one to statistical equivalence, the table (and
  the matching test tolerance) must change with it, visibly.
* A Hypothesis property test pits both engines against the
  ``test_random_nets`` fuzzer topologies at identical seeds.
* An adaptive-controller run asserts converged flags and replication
  counts agree across engines (the controller only sees values, and the
  values are identical).
* Every driver's batch function returns its per-replication function's
  values, pickle for pickle, for a batch that mixes points and skips
  replications.
* The compile-time fences: everything outside the subset must raise
  :class:`~repro.core.errors.UnsupportedNetError`, not silently
  diverge.
"""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    INFINITE_SERVERS,
    TRUE,
    Deterministic,
    Exponential,
    MemoryPolicy,
    PetriNet,
    Simulation,
    Uniform,
    color_eq,
    simulate,
    tokens_eq,
    tokens_ge,
    tokens_gt,
    tokens_le,
    tokens_lt,
    tokens_ne,
)
from repro.core.errors import ImmediateLoopError, UnsupportedNetError
from repro.core.fast import VectorPredicate, compile_net, engine, run_ensemble
from repro.core.fast.engine import _Ensemble
from repro.core.guards import FunctionGuard
from repro.core.marking import Token
from repro.energy.power import PowerStateTable, cpu_power_table
from repro.experiments.figures import (
    CPUComparisonConfig,
    _evaluate_cpu_point,
    _evaluate_cpu_point_ensemble,
)
from repro.experiments.network import (
    NetworkScenarioConfig,
    make_topology,
    run_network_scenario,
)
from repro.experiments.sensitivity import (
    _node_energy_ensemble_task,
    _node_energy_task,
    node_optimum_vs_rate,
)
from repro.experiments.validation import (
    ValidationConfig,
    _run_validation_ensemble,
    _run_validation_rep,
)
from repro.models.cpu_petri import CPUPetriModel, simulate_cpu_ensembles
from repro.models.network import (
    simulate_node_segments_ensemble_task,
    simulate_node_segments_task,
)
from repro.models.simple_node import SimpleNodeModel
from repro.models.wsn_node import (
    NodeParameters,
    WSNNodeModel,
    simulate_node_ensemble_task,
    simulate_node_ensembles,
    simulate_node_task,
)
from repro.runtime.config import ExecutionConfig
from repro.runtime.seeding import replication_seeds
from repro.topology.dynamics import ChurnModel, NodeSegment
from repro.topology.traffic import MMPPTraffic
from tests.core import test_simulator
from tests.integration.test_random_nets import random_closed_net

#: The shipped equivalence mode of every paper model, per the ISSUE 6
#: correctness contract.  ``"bit-identical"`` means the vectorized
#: result objects compare *equal* to the interpreted ones — same RNG
#: draw order, same floating-point accumulation sequence — and the
#: tests below enforce exactly that.  A model that ever needs the
#: weaker ``"statistical"`` mode must change this table and its test
#: together (tolerance comparison against the Tables 8-10 targets).
EQUIVALENCE_MODE = {
    "wsn_closed": "bit-identical",
    "wsn_open": "bit-identical",
    "cpu_petri": "bit-identical",
    "simple_node": "bit-identical",
}

SEEDS = (2010, 7, 123)


def _wsn_model(workload: str) -> WSNNodeModel:
    return WSNNodeModel(
        NodeParameters(power_down_threshold=0.00178), workload
    )


MODEL_RUNS = {
    "wsn_closed": (lambda: _wsn_model("closed"), 60.0, 0.0),
    "wsn_open": (lambda: _wsn_model("open"), 60.0, 10.0),
    "cpu_petri": (lambda: CPUPetriModel(1.0, 10.0, 0.1, 0.3), 200.0, 50.0),
    "simple_node": (lambda: SimpleNodeModel(), 300.0, 100.0),
}


class TestShippedModelEquivalence:
    """Every paper model's declared equivalence mode, enforced."""

    def test_every_shipped_model_declares_a_mode(self):
        assert set(EQUIVALENCE_MODE) == set(MODEL_RUNS)

    @pytest.mark.parametrize("name", sorted(MODEL_RUNS))
    def test_model_matches_declared_mode(self, name):
        mode = EQUIVALENCE_MODE[name]
        # All shipped models are inside the compilable subset, so the
        # strong mode is mandatory; a "statistical" entry here without
        # a matching tolerance test is a contract violation.
        assert mode == "bit-identical", (
            f"{name} declares {mode!r}: add a tolerance-based "
            "comparison against the Tables 8-10 targets for it"
        )
        build, horizon, warmup = MODEL_RUNS[name]
        interpreted = [
            build().simulate(horizon, seed=s, warmup=warmup) for s in SEEDS
        ]
        vectorized = build().simulate_ensemble(
            horizon, SEEDS, warmup=warmup
        )
        # Dataclass equality: every field, bit for bit.
        assert vectorized == interpreted

    def test_wsn_energy_is_bit_identical_not_just_close(self):
        # Spot-check the headline metric with exact float equality —
        # guards against a refactor quietly relaxing == to approx.
        model = _wsn_model("closed")
        [vec] = model.simulate_ensemble(60.0, [2010])
        ref = model.simulate(60.0, seed=2010)
        assert vec.total_energy_j == ref.total_energy_j
        assert vec.cpu_fractions == ref.cpu_fractions
        assert vec.breakdown == ref.breakdown


_COMPARE = (tokens_eq, tokens_ne, tokens_gt, tokens_ge, tokens_lt, tokens_le)


@st.composite
def _guards(draw, places, depth=0):
    """A token-count guard, possibly under ``And`` / ``Or`` / ``Not``."""
    kind = draw(st.sampled_from(("count", "and", "or", "not")[: 4 if depth < 2 else 1]))
    if kind == "count":
        op = draw(st.sampled_from(_COMPARE))
        return op(draw(st.sampled_from(places)), draw(st.integers(0, 2)))
    if kind == "not":
        return ~draw(_guards(places, depth + 1))
    left = draw(_guards(places, depth + 1))
    right = draw(_guards(places, depth + 1))
    return left & right if kind == "and" else left | right


@st.composite
def random_engine_net(draw):
    """A random net that uses every feature the compiled tables lower.

    Tokens circulate on a ring of timed transitions (deterministic or
    exponential, arc multiplicities 1-2, optional inhibitor arcs and
    guards).  Side loops hang off the ring:

    * ``feed`` fills ``Buf``, which equal-priority immediates of random
      weights empty (a weighted tie), next to a guarded immediate that
      takes two tokens at a random priority;
    * ``fill`` / ``spin`` / ``empty`` work a bounded place, ``spin`` as
      a self-loop that frees the capacity it takes;
    * ``paint1`` / ``paint2`` put coloured tokens in a FIFO place that
      colour-filtered transitions drain and ``mix`` forwards, by FIFO
      order, into a place drained by colour;
    * a multi-server transition is defined between two stochastic
      single-server ones on the same input, so a row that enables all
      three draws their delays in definition order.

    Every transition conserves tokens and no immediate feeds another,
    so runs neither grow without bound nor loop in zero time.
    """
    n = draw(st.integers(3, 5))
    ring = [f"R{i}" for i in range(n)]
    net = PetriNet("engine-fuzz")
    for i, name in enumerate(ring):
        net.add_place(name, initial_tokens=draw(st.integers(2, 5) if i == 0 else st.integers(0, 1)))
    net.add_place("Buf")
    net.add_place("WorkA")
    net.add_place("WorkB")
    net.add_place("Cap", capacity=draw(st.integers(1, 3)))
    colours = draw(st.lists(st.sampled_from([1, 2]), max_size=3))
    net.add_place("Col", initial_tokens=[Token(c) for c in colours])
    net.add_place("Mixed")
    places = list(net.place_names)
    delay = st.one_of(
        st.sampled_from([0.5, 1.0, 1.5]).map(Deterministic),
        st.floats(0.3, 3.0).map(Exponential),
    )
    guard = st.one_of(st.just(TRUE), _guards(places))
    stop = st.lists(
        st.tuples(st.sampled_from(places), st.integers(1, 3)), max_size=1
    )
    on_ring = st.sampled_from(ring)

    for i in range(n):
        m = draw(st.integers(1, 2))
        net.add_transition(
            f"ring{i}",
            draw(delay),
            inputs=[(ring[i], m)],
            outputs=[(ring[(i + 1) % n], m)],
            inhibitors=draw(stop),
            guard=draw(guard),
        )
    src, dst = draw(on_ring), draw(on_ring)
    for name, servers in (("before", 1), ("multi", draw(st.integers(2, 3))), ("after", 1)):
        net.add_transition(
            name,
            Exponential(draw(st.floats(0.3, 3.0))),
            inputs=[src],
            outputs=[dst],
            servers=servers,
        )
    net.add_transition("feed", draw(delay), inputs=[draw(on_ring)], outputs=["Buf"])
    level = draw(st.integers(1, 3))
    for name in ("pickA", "pickB"):
        net.add_transition(
            name,
            inputs=["Buf"],
            outputs=[f"Work{name[-1]}"],
            priority=level,
            weight=draw(st.floats(0.1, 5.0)),
        )
    net.add_transition(
        "pickPair",
        inputs=[("Buf", 2)],
        outputs=[("WorkA", 2)],
        priority=draw(st.integers(0, 4)),
        guard=draw(guard),
    )
    net.add_transition("doneA", draw(delay), inputs=["WorkA"], outputs=[ring[0]])
    net.add_transition("doneB", draw(delay), inputs=["WorkB"], outputs=[ring[0]])
    m = draw(st.integers(1, 2))
    net.add_transition("fill", draw(delay), inputs=[(draw(on_ring), m)], outputs=[("Cap", m)])
    net.add_transition("spin", draw(delay), inputs=["Cap"], outputs=["Cap"])
    net.add_transition("empty", draw(delay), inputs=["Cap"], outputs=[ring[0]])
    for c in (1, 2):
        net.add_transition(
            f"paint{c}", draw(delay), inputs=[draw(on_ring)], outputs=[("Col", 1, c)]
        )
    net.add_transition(
        "drain1", draw(delay), inputs=[("Col", 1, color_eq(1))], outputs=[ring[0]]
    )
    if draw(st.booleans()):
        net.add_transition(
            "drain2",
            inputs=[("Col", 1, color_eq(2))],
            outputs=[ring[1]],
            priority=draw(st.integers(0, 4)),
        )
    net.add_transition("mix", draw(delay), inputs=["Col"], outputs=["Mixed"])
    for c in (1, 2):
        net.add_transition(
            f"unmix{c}",
            draw(delay),
            inputs=[("Mixed", 1, color_eq(c))],
            outputs=[ring[0]],
        )
    return net, draw(st.integers(0, 10**6))


#: Rich-net examples per run: a tier-1 sample, or the budget of the
#: loaded profile under ``pytest --hypothesis-profile=ci`` (see
#: tests/conftest.py).
RICH_NET_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci"
    else 25
)


def _assert_rows_match(net, ensemble, seeds, horizons, warmup):
    """Each ensemble row equals its interpreted run, bit for bit."""
    for s, h, vec in zip(seeds, horizons, ensemble):
        ref = simulate(net, horizon=h, seed=s, warmup=warmup)
        assert vec.firings == ref.firings
        assert vec.deadlocked == ref.deadlocked
        assert vec.final_marking_counts == ref.final_marking_counts
        assert vec.end_time == ref.end_time
        for place in net.place_names:
            assert vec.occupancy(place) == ref.occupancy(place), place
            assert vec.mean_tokens(place) == ref.mean_tokens(place), place
            assert (
                vec.stats.place_acc[place].maximum()
                == ref.stats.place_acc[place].maximum()
            ), place
        for t in net.transition_names:
            assert vec.stats.firing_count(t) == ref.stats.firing_count(t), t


class TestFuzzerNetEquivalence:
    """Property test: both engines agree on random topologies."""

    @settings(
        max_examples=RICH_NET_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        random_engine_net(),
        st.lists(st.floats(4.0, 40.0), min_size=2, max_size=6),
        st.sampled_from([0.0, 2.0]),
    )
    def test_rich_nets_match_interpreted(self, net_and_seed, horizons, warmup):
        # Weighted ties, multiplicities, inhibitors, capacities, guard
        # algebra, colour filters, FIFO forwarding and multi-server
        # draw order: every row, at a horizon of its own, is the
        # interpreted run bit for bit.  Up to six rows retire at their
        # own horizons, so retired rows leave holes mid-prefix and live
        # rows swap into them with their FIFO queues, server slots,
        # predicate values and per-row draws.
        net, seed = net_and_seed
        seeds = [seed + i for i in range(len(horizons))]
        ensemble = run_ensemble(net, horizons, seeds, warmup=warmup)
        _assert_rows_match(net, ensemble, seeds, horizons, warmup)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        random_closed_net(),
        st.lists(st.floats(20.5, 300.0), min_size=2, max_size=2),
    )
    def test_vectorized_matches_interpreted(self, net_and_seed, horizons):
        net, seed = net_and_seed
        # The fuzzer nets are plain exponential SPNs — squarely inside
        # the compilable subset, so the declared mode is bit-identity
        # (tolerance 0), strictly stronger than the statistical
        # tolerance the contract would allow.  Each row runs to a
        # horizon of its own, past the warm-up.
        seeds = [seed, seed + 1]
        ensemble = run_ensemble(net, horizons, seeds, warmup=20.0)
        _assert_rows_match(net, ensemble, seeds, horizons, 20.0)


class TestAdaptiveControllerAgreement:
    """Converged flags and replication counts agree across engines."""

    def test_converged_flags_and_counts_agree(self):
        kwargs = dict(
            rates=(1.0,), thresholds=(0.00178, 10.0), horizon=40.0, seed=2010
        )
        adaptive = ExecutionConfig(
            ci_target=0.3, max_replications=8, replications=2
        )
        interp = node_optimum_vs_rate(
            exec_cfg=adaptive.with_overrides(engine="interpreted"), **kwargs
        )
        vec = node_optimum_vs_rate(
            exec_cfg=adaptive.with_overrides(engine="vectorized"), **kwargs
        )
        assert [(run.replications, run.converged) for run in vec.runs] == [
            (run.replications, run.converged) for run in interp.runs
        ]
        assert vec.optima == interp.optima
        assert vec.optimum_energies_j == interp.optimum_energies_j
        assert vec.savings_vs_never == interp.savings_vs_never


#: Network topologies of at least LOCKSTEP_MIN_ROWS nodes, so the
#: vectorized run packs its nodes into an ensemble.
_NETWORK_TOPOLOGIES = {
    "line": dict(kind="line", nodes=9),
    "grid": dict(kind="grid", width=3, height=3),
    "cluster-tree": dict(kind="cluster-tree", fanout=3, depth=2),
    "geometric": dict(kind="geometric", nodes=10, seed=4),
}

#: ``(workload, traffic)`` of every arrival process a network runs.
_NETWORK_TRAFFIC = {
    "open": ("open", None),
    "closed": ("closed", None),
    "bursty": ("open", MMPPTraffic(2.0, 3.0)),
    "bursty-trickle": ("open", MMPPTraffic(2.0, 3.0, off_fraction=0.25)),
}


class TestNetworkEngineEquivalence:
    """Network runs give the same bytes on both engines."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        topology=st.sampled_from(sorted(_NETWORK_TOPOLOGIES)),
        traffic=st.sampled_from(sorted(_NETWORK_TRAFFIC)),
        churn=st.booleans(),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_pickled_results_are_equal(
        self, topology, traffic, churn, workers, seed
    ):
        workload, mmpp = _NETWORK_TRAFFIC[traffic]
        cfg = NetworkScenarioConfig(
            topology=make_topology(**_NETWORK_TOPOLOGIES[topology]),
            horizon=6.0,
            base_rate=0.3,
            seed=seed,
            workload=workload,
            traffic=mmpp,
            dynamics=(
                ChurnModel(failure_rate=0.05, duty_spread=0.3) if churn else None
            ),
        )
        results = [
            pickle.dumps(
                run_network_scenario(
                    cfg,
                    exec_cfg=ExecutionConfig(engine=engine, workers=workers),
                ),
                5,
            )
            for engine in ("interpreted", "vectorized")
        ]
        assert results[0] == results[1]


class TestUnsupportedNetFences:
    """Outside the subset: refuse at compile time, never diverge."""

    @staticmethod
    def _base():
        net = PetriNet("fence")
        net.add_place("P", initial_tokens=1)
        net.add_place("Q")
        return net

    def _expect_unsupported(self, net, fragment):
        with pytest.raises(UnsupportedNetError) as err:
            compile_net(net)
        assert fragment in str(err.value)

    def test_function_guard(self):
        net = self._base()
        net.add_transition(
            "t", Deterministic(1.0), inputs=["P"], outputs=["Q"],
            guard=FunctionGuard(lambda view: True, "always"),
        )
        self._expect_unsupported(net, "guard")

    def test_reset_arcs(self):
        net = self._base()
        net.add_transition(
            "t", Deterministic(1.0), inputs=["P"], outputs=["Q"], resets=["Q"]
        )
        self._expect_unsupported(net, "reset arcs")

    def test_opaque_token_filter(self):
        net = self._base()
        net.add_transition(
            "t",
            Deterministic(1.0),
            inputs=[("P", 1, lambda token: token.color == 1)],
            outputs=["Q"],
        )
        self._expect_unsupported(net, "token filter")

    def test_age_memory(self):
        net = self._base()
        net.add_transition(
            "t", Exponential(1.0), inputs=["P"], outputs=["Q"],
            memory=MemoryPolicy.AGE,
        )
        self._expect_unsupported(net, "memory")

    def test_infinite_servers(self):
        net = self._base()
        net.add_transition(
            "t", Exponential(1.0), inputs=["P"], outputs=["Q"],
            servers=INFINITE_SERVERS,
        )
        self._expect_unsupported(net, "infinite servers")

    def test_opaque_output_producer(self):
        net = self._base()
        net.add_transition(
            "t", Deterministic(1.0), inputs=["P"],
            outputs=[("Q", 1, lambda ctx: Token(1))],
        )
        self._expect_unsupported(net, "producer")

    def test_error_names_the_offending_element(self):
        net = self._base()
        net.add_transition(
            "culprit", Exponential(1.0), inputs=["P"], outputs=["Q"],
            servers=INFINITE_SERVERS,
        )
        with pytest.raises(UnsupportedNetError) as err:
            compile_net(net)
        assert "culprit" in str(err.value)


class TestInitialMarkingOverrides:
    """Colour handling of ``initial_marking`` overrides."""

    def test_alien_colour_in_observable_place_raises(self):
        # WSN "Buffer" feeds filtered arcs, so its colours are
        # observable and the compiled pool is closed: a colour the
        # compiler never saw must be rejected, not guessed at.
        model = _wsn_model("closed")
        with pytest.raises(UnsupportedNetError) as err:
            run_ensemble(
                model.build(), 10.0, [1],
                initial_marking={"Buffer": [Token(99)]},
            )
        assert "colour" in str(err.value)

    def test_nonobservable_colours_collapse_soundly(self):
        # CPU_Buffer never reaches a filtered arc, so its colours are
        # projected away at compile time; an exotic override colour
        # collapses the same way and the run still matches the
        # interpreted engine bit for bit.
        overrides = {"CPU_Buffer": [Token("red")]}
        net = CPUPetriModel(1.0, 10.0, 0.1, 0.3).build()
        [vec] = run_ensemble(net, 50.0, [1], initial_marking=overrides)
        ref = Simulation(
            CPUPetriModel(1.0, 10.0, 0.1, 0.3).build(),
            seed=1,
            initial_marking=overrides,
        ).run(50.0)
        assert vec.final_marking_counts == ref.final_marking_counts
        assert vec.firings == ref.firings

    def test_count_overrides_match_interpreted(self):
        overrides = {"CPU_Buffer": 2}
        net = CPUPetriModel(1.0, 10.0, 0.1, 0.3).build()
        [vec] = run_ensemble(net, 50.0, [1], initial_marking=overrides)
        ref = Simulation(
            CPUPetriModel(1.0, 10.0, 0.1, 0.3).build(),
            seed=1,
            initial_marking=overrides,
        ).run(50.0)
        assert vec.final_marking_counts == ref.final_marking_counts
        assert vec.firings == ref.firings


class TestVectorPredicates:
    """Predicate tracking matches the interpreted collector exactly."""

    def test_predicate_occupancy_is_bit_identical(self):
        model = _wsn_model("closed")
        net = model.build()
        [vec] = run_ensemble(
            net,
            60.0,
            [2010],
            predicates={"cpu_active": VectorPredicate(model._cpu_active)},
        )
        sim = Simulation(model.build(), seed=2010)
        sim.add_predicate("cpu_active", model._cpu_active)
        ref = sim.run(60.0)
        assert vec.stats.predicate_probability(
            "cpu_active"
        ) == ref.stats.predicate_probability("cpu_active")


class TestEnsembleStaleSchedule:
    """The ensemble's scheduled-but-stale branch, as
    ``tests/core/test_simulator.py::TestStaleSchedule`` pins the
    interpreted one: a slot scheduled for a disabled transition pops as
    a non-firing event that still advances the clock."""

    def test_stale_pop_matches_interpreted(self):
        net = test_simulator.TestStaleSchedule._net()
        sim = Simulation(net, seed=0)
        sim._initialize()
        sim.calendar.schedule("never#0", 2.0)
        ref = sim.run(10.0)

        cn = compile_net(net)
        ensemble = _Ensemble(cn, [np.random.default_rng(0)], {}, 0.0, None, None)
        [never] = [ct for ct in cn.timed if ct.name == "never"]
        assert ensemble.sched[0, never.col0] == np.inf
        ensemble.sched[0, never.col0] = 2.0  # disabled, scheduled anyway
        horizon = np.array([10.0])
        ensemble.run(horizon)
        ensemble.finalize(horizon)
        row = ensemble.hydrate(0)

        assert ensemble.stale_pops == sim.stale_pops == 1
        assert row.firings == ref.firings == 1  # a stale pop is not a firing
        assert row.stats.firing_count("never") == 0
        assert row.final_marking_counts == ref.final_marking_counts
        for place in net.place_names:
            assert row.occupancy(place) == ref.occupancy(place), place


class TestEnsembleImmediateLoop:
    """The lockstep vanishing-loop guard reports the time at which a
    seed-order run of every row meets the loop first, wherever the
    looping rows sit in the ensemble."""

    @staticmethod
    def _net(arm_delay):
        # ``arm`` starts an endless ab/ba loop; ``tick`` keeps an unarmed
        # row stepping.
        net = PetriNet("loop-after-arm")
        net.add_place("Armed", initial_tokens=1)
        net.add_place("Src", initial_tokens=1)
        net.add_place("L1")
        net.add_place("L2")
        net.add_transition(
            "arm", Deterministic(arm_delay), inputs=["Armed"], outputs=["L1"]
        )
        net.add_transition(
            "tick", Deterministic(10.0), inputs=["Src"], outputs=["Src"]
        )
        net.add_transition("ab", inputs=["L1"], outputs=["L2"])
        net.add_transition("ba", inputs=["L2"], outputs=["L1"])
        return net

    def test_loop_time_is_the_first_looping_seed_row(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_IMMEDIATE_FIRINGS", 10)
        # Row 0 retires in the first round (horizon 1.5), so row 3 moves
        # into its place, ahead of row 1.  Rows 1 and 3 enter the loop in
        # that same round, at t=2 and t=3; seed order meets row 1 first.
        delays = [100.0, 2.0, 100.0, 3.0]
        seeds = [5, 6, 7, 8]
        with pytest.raises(ImmediateLoopError) as lockstep:
            run_ensemble(
                self._net(100.0),
                [1.5, 50.0, 50.0, 50.0],
                seeds,
                row_timing={"arm": [Deterministic(d) for d in delays]},
            )
        sim = Simulation(self._net(2.0), seed=seeds[1], max_immediate_firings=10)
        with pytest.raises(ImmediateLoopError) as interpreted:
            sim.run(50.0)
        assert lockstep.value.epoch == interpreted.value.epoch == 2.0


class TestMultiServerEquivalence:
    """Finite ``servers=k`` transitions: slot starts and cancellations."""

    @staticmethod
    def _net(k, dist):
        # ``serve`` runs up to k jobs at once; ``steal`` drains the same
        # queue, so live slots are cancelled whenever the queue shrinks
        # below the number of busy servers.
        net = PetriNet("multi-server")
        net.add_place("Src", initial_tokens=1)
        net.add_place("Queue", initial_tokens=k)
        net.add_place("Done")
        net.add_transition(
            "arrive", Exponential(3.0), inputs=["Src"], outputs=["Src", "Queue"]
        )
        net.add_transition(
            "serve", dist, inputs=["Queue"], outputs=["Done"], servers=k
        )
        net.add_transition(
            "steal", Exponential(1.5), inputs=["Queue"], outputs=["Done"]
        )
        net.add_transition("leave", Exponential(4.0), inputs=["Done"])
        return net

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize(
        "dist",
        [Exponential(0.8), Deterministic(0.9), Uniform(0.2, 1.6)],
        ids=["exponential", "deterministic", "uniform"],
    )
    def test_matches_interpreted(self, k, dist):
        net = self._net(k, dist)
        seeds = list(range(40, 48))
        ensemble = run_ensemble(net, 60.0, seeds)
        for s, vec in zip(seeds, ensemble):
            ref = simulate(net, horizon=60.0, seed=s)
            assert vec.firings == ref.firings
            assert vec.final_marking_counts == ref.final_marking_counts
            for place in net.place_names:
                assert vec.occupancy(place) == ref.occupancy(place), place
            for t in net.transition_names:
                assert vec.stats.firing_count(t) == ref.stats.firing_count(t)


def _assert_each_row_matches(nets, ensemble, seeds, horizon):
    """Row ``r`` equals the interpreted run of ``nets[r]`` at ``seeds[r]``."""
    assert len(ensemble) == len(nets)
    for net, seed, row in zip(nets, seeds, ensemble):
        _assert_rows_match(net, [row], [seed], [horizon], 0.0)


class TestRowGenerators:
    """Every row draws from a generator of its own, whatever its seed."""

    @staticmethod
    def _net(rate):
        net = PetriNet("draws")
        net.add_place("Idle", initial_tokens=2)
        net.add_place("Busy")
        net.add_transition(
            "start", Exponential(rate), inputs=["Idle"], outputs=["Busy"]
        )
        net.add_transition(
            "finish", Uniform(0.1, 0.9), inputs=["Busy"], outputs=["Idle"]
        )
        return net

    def test_rows_that_share_a_seed_match_their_own_runs(self):
        # A sweep's seeds: every replication seed at every point.  Then
        # the same seed spelled as a NumPy integer, a 128-bit seed, and
        # the first seed once more.  Rows of one seed draw at different
        # rates, so a generator shared between them would shift the
        # streams of the later rows.
        rates = (0.5, 2.0, 8.0)
        seeds = [11, 12] * len(rates) + [np.int64(11), 2**127 + 11, 11]
        row_rates = [r for r in rates for _ in (11, 12)] + [2.0, 2.0, 0.5]
        horizon = 30.0
        ensemble = run_ensemble(
            self._net(1.0),
            horizon,
            seeds,
            row_timing={"start": [Exponential(r) for r in row_rates]},
        )
        _assert_each_row_matches(
            [self._net(r) for r in row_rates], ensemble, seeds, horizon
        )

    def test_rows_without_a_seed_draw_fresh_streams(self):
        ensemble = run_ensemble(self._net(2.0), 30.0, [None, None])
        busy = ensemble.occupancy("Busy").tolist()
        assert busy[0] != busy[1]

    def test_each_row_gets_the_state_of_its_seed(self):
        seeds = [5, None, 5, np.int64(5), 2**100, None, 2**100]
        rngs = engine._row_generators(seeds)
        assert len({id(g) for g in rngs}) == len(seeds)
        assert len({id(g.bit_generator) for g in rngs}) == len(seeds)
        for seed, g in zip(seeds, rngs):
            if seed is not None:
                state = np.random.default_rng(seed).bit_generator.state
                assert g.bit_generator.state == state
        assert rngs[1].bit_generator.state != rngs[5].bit_generator.state


class TestFifoRingGrowth:
    """A FIFO place whose ring buffer grows after its head has moved."""

    @staticmethod
    def _net(paint_delay, paint_rate):
        # ``Col`` starts with two tokens (a ring of 4 slots).  ``mix``
        # pops its head every second, and the paint loops push faster
        # or slower than that, so each row's ring fills to a level of
        # its own and grows after its head has advanced.
        net = PetriNet("fifo-growth")
        net.add_place("Src", initial_tokens=1)
        net.add_place("Col", initial_tokens=[Token(1), Token(2)])
        net.add_place("Mixed")
        net.add_place("Out")
        net.add_transition(
            "paint1",
            Deterministic(paint_delay),
            inputs=["Src"],
            outputs=["Src", ("Col", 1, 1)],
        )
        net.add_transition(
            "paint2",
            Exponential(paint_rate),
            inputs=["Src"],
            outputs=["Src", ("Col", 1, 2)],
        )
        net.add_transition(
            "mix", Deterministic(1.0), inputs=["Col"], outputs=["Mixed"]
        )
        net.add_transition(
            "unmix1",
            Exponential(2.0),
            inputs=[("Mixed", 1, color_eq(1))],
            outputs=["Out"],
        )
        net.add_transition(
            "unmix2",
            Deterministic(0.5),
            inputs=[("Mixed", 1, color_eq(2))],
            outputs=["Out"],
        )
        return net

    def test_rows_at_different_fill_levels_match_interpreted(self, monkeypatch):
        grown = []
        grow = engine._ColorQueue._grow

        def record(queue):
            grown.append((queue.cap, queue.head.copy(), queue.size.copy()))
            grow(queue)

        monkeypatch.setattr(engine._ColorQueue, "_grow", record)
        delays = [0.3, 0.45, 0.7, 2.0, 0.3]
        rates = [0.5, 2.5, 1.0, 0.2, 4.0]
        seeds = [3, 4, 3, 5, 6]
        horizon = 12.0
        net = self._net(1.0, 1.0)
        cn = compile_net(net)
        assert cn.place_index["Col"] in cn.queued_places
        ensemble = run_ensemble(
            net,
            horizon,
            seeds,
            row_timing={
                "paint1": [Deterministic(d) for d in delays],
                "paint2": [Exponential(r) for r in rates],
            },
        )
        # The ring grew while a full row's head sat past slot 0, so its
        # tokens wrapped around the end of the buffer.
        assert any(
            ((size == cap) & (head > 0)).any() for cap, head, size in grown
        )
        assert len({row.final_marking_counts["Col"] for row in ensemble}) > 2
        _assert_each_row_matches(
            [self._net(d, r) for d, r in zip(delays, rates)],
            ensemble,
            seeds,
            horizon,
        )


class TestImmediatePriorityMixes:
    """One immediate pass in which one row holds a weighted tie and
    another holds two enabled immediates of different priorities."""

    @staticmethod
    def _net(tie_delay, prio_delay):
        net = PetriNet("priority-mix")
        net.add_place("SrcT", initial_tokens=1)
        net.add_place("SrcP", initial_tokens=1)
        net.add_place("Buf")
        net.add_place("P")
        for name in ("A", "B", "High", "Low"):
            net.add_place(name)
        net.add_transition(
            "toTie",
            Deterministic(tie_delay),
            inputs=["SrcT"],
            outputs=["SrcT", "Buf"],
        )
        net.add_transition(
            "toPrio",
            Deterministic(prio_delay),
            inputs=["SrcP"],
            outputs=["SrcP", "P"],
        )
        # pickA and pickB tie at priority 1; high beats low on P.
        net.add_transition("pickA", inputs=["Buf"], outputs=["A"], weight=1.0)
        net.add_transition("pickB", inputs=["Buf"], outputs=["B"], weight=3.0)
        net.add_transition("high", inputs=["P"], outputs=["High"], priority=2)
        net.add_transition("low", inputs=["P"], outputs=["Low"], priority=1)
        for name in ("A", "B", "High", "Low"):
            net.add_transition(
                f"drop{name}", Exponential(1.5), inputs=[name]
            )
        return net

    def test_tie_and_priority_rows_match_interpreted(self):
        # Row 0 first fires toTie and row 1 toPrio, both at t=1, so the
        # first immediate pass after it holds a tie in row 0 and a
        # priority choice in row 1; the seeds repeat for rows 2 and 3.
        timing = [(1.0, 5.0), (5.0, 1.0), (1.0, 5.0), (0.7, 0.7)]
        seeds = [21, 21, 22, 22]
        horizon = 20.0
        ensemble = run_ensemble(
            self._net(2.0, 2.0),
            horizon,
            seeds,
            row_timing={
                "toTie": [Deterministic(t) for t, _ in timing],
                "toPrio": [Deterministic(p) for _, p in timing],
            },
        )
        _assert_each_row_matches(
            [self._net(t, p) for t, p in timing], ensemble, seeds, horizon
        )
        tie, prio = ensemble[0].stats, ensemble[1].stats
        assert tie.firing_count("pickA") > 0 and tie.firing_count("pickB") > 0
        assert prio.firing_count("high") > 0 and prio.firing_count("low") == 0


class TestPerRowEnsembles:
    """One net, per-row timing: the rows of a whole sweep, one ensemble."""

    THRESHOLDS = (1e-9, 0.00178, 0.05, 1.0)
    SEEDS = (2010, 7, 123)
    HORIZON = 20.0

    def _rows(self, params):
        # One net for every row; each row's threshold and arrival rate
        # come from row_timing.
        models = [WSNNodeModel(p, "closed") for p in params for _ in self.SEEDS]
        results = run_ensemble(
            models[0].build(),
            self.HORIZON,
            [s for _ in params for s in self.SEEDS],
            row_timing={
                "Power_Down_Threshold": [
                    Deterministic(m.params.power_down_threshold) for m in models
                ],
                "T0": [Exponential(m.params.arrival_rate) for m in models],
            },
            predicates={
                "cpu_active": VectorPredicate(WSNNodeModel._cpu_active)
            },
        )
        return models, results

    def _assert_rows_match(self, params):
        models, results = self._rows(params)
        seeds = [s for _ in params for s in self.SEEDS]
        assert len(results) == len(models)
        for r, (model, seed) in enumerate(zip(models, seeds)):
            assert model._account(results[r : r + 1], 0.0) == [
                model.simulate(self.HORIZON, seed=seed)
            ]

    def test_threshold_rows_match_per_point_runs(self):
        self._assert_rows_match(
            [NodeParameters(power_down_threshold=t) for t in self.THRESHOLDS]
        )

    def test_arrival_rate_rows_match_per_point_runs(self):
        # Different rates are per-row exponential arrival distributions.
        self._assert_rows_match(
            [NodeParameters(arrival_rate=r) for r in (0.5, 1.0, 4.0)]
        )

    def test_grouped_models_match_single_model_ensembles(self):
        models = [
            WSNNodeModel(NodeParameters(power_down_threshold=t), "open")
            for t in self.THRESHOLDS
        ]
        groups = simulate_node_ensembles(
            models, [self.SEEDS] * len(models), self.HORIZON, warmup=5.0
        )
        assert groups == [
            m.simulate_ensemble(self.HORIZON, self.SEEDS, warmup=5.0)
            for m in models
        ]

    def test_rate_and_threshold_models_match_per_point_runs(self):
        models = [
            WSNNodeModel(
                NodeParameters(power_down_threshold=t, arrival_rate=r), "open"
            )
            for t, r in ((0.00178, 0.5), (1.0, 2.0), (0.05, 4.0))
        ]
        groups = simulate_node_ensembles(
            models, [self.SEEDS] * len(models), self.HORIZON
        )
        assert groups == [
            [m.simulate(self.HORIZON, seed=s) for s in self.SEEDS]
            for m in models
        ]

    def test_one_compile_and_one_build_per_ensemble(self, monkeypatch):
        import repro.core.fast.engine as engine
        import repro.models.wsn_node as wsn_node

        calls = {"compile": 0, "build": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            engine, "compile_net", counted("compile", engine.compile_net)
        )
        monkeypatch.setattr(
            wsn_node,
            "build_wsn_node_net",
            counted("build", wsn_node.build_wsn_node_net),
        )
        models = [
            WSNNodeModel(NodeParameters(power_down_threshold=t), "closed")
            for t in self.THRESHOLDS
        ]
        simulate_node_ensembles(models, [self.SEEDS] * len(models), 5.0)
        assert calls == {"compile": 1, "build": 1}

    def test_models_differing_beyond_row_timing_are_refused(self):
        models = [
            WSNNodeModel(NodeParameters(com_packets=1)),
            WSNNodeModel(NodeParameters(com_packets=2)),
        ]
        with pytest.raises(ValueError, match="differ in com_packets: 1 != 2"):
            simulate_node_ensembles(models, [[1], [1]], 5.0)

    def test_open_and_closed_models_are_refused(self):
        p = NodeParameters()
        models = [WSNNodeModel(p, "open"), WSNNodeModel(p, "closed")]
        with pytest.raises(ValueError, match="differ in workload") as err:
            simulate_node_ensembles(models, [[1], [1]], 5.0)
        assert "OpenWorkload" in str(err.value)
        assert "ClosedWorkload" in str(err.value)

    def test_bursty_models_match_per_point_runs(self):
        # MMPP nodes of one network differ in their emit rates only.
        models = [
            WSNNodeModel(
                NodeParameters(power_down_threshold=t),
                MMPPTraffic(2.0, 3.0, off_fraction=0.2).workload(rate),
            )
            for t, rate in ((0.00178, 0.5), (1.0, 2.0), (0.05, 4.0))
        ]
        groups = simulate_node_ensembles(
            models, [self.SEEDS] * len(models), self.HORIZON
        )
        assert groups == [
            [m.simulate(self.HORIZON, seed=s) for s in self.SEEDS]
            for m in models
        ]

    def test_bursty_models_with_and_without_a_quiet_emitter_are_refused(self):
        models = [
            WSNNodeModel(NodeParameters(), MMPPTraffic(off_fraction=f).workload(1.0))
            for f in (0.0, 0.2)
        ]
        with pytest.raises(ValueError, match="differ in emit transitions") as err:
            simulate_node_ensembles(models, [[1], [1]], 5.0)
        assert "T0_off" in str(err.value)

    def test_bursty_models_differing_in_dwell_means_are_refused(self):
        models = [
            WSNNodeModel(NodeParameters(), MMPPTraffic(on, 3.0).workload(1.0))
            for on in (2.0, 4.0)
        ]
        with pytest.raises(ValueError, match="differ in workload"):
            simulate_node_ensembles(models, [[1], [1]], 5.0)

    def test_models_sharing_power_tables_account_once(self, monkeypatch):
        import repro.models.wsn_node as wsn_node

        calls = []

        def counted(rows, *args):
            calls.append(len(rows))
            return account(rows, *args)

        account = wsn_node._account
        monkeypatch.setattr(wsn_node, "_account", counted)
        models = [
            WSNNodeModel(NodeParameters(power_down_threshold=t), "open")
            for t in self.THRESHOLDS
        ]
        simulate_node_ensembles(models, [self.SEEDS] * len(models), 5.0)
        assert calls == [len(models) * len(self.SEEDS)]

    def test_cpu_models_match_per_point_runs(self):
        models = [
            CPUPetriModel(1.0, 10.0, 0.1, 0.05),
            CPUPetriModel(2.0, 5.0, 1e-9, 0.2),
            CPUPetriModel(0.5, 20.0, 2.0, 0.0),
        ]
        groups = simulate_cpu_ensembles(
            models, [self.SEEDS] * len(models), self.HORIZON, warmup=2.0
        )
        assert groups == [
            [m.simulate(self.HORIZON, seed=s, warmup=2.0) for s in self.SEEDS]
            for m in models
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            CPUPetriModel(0.0, 10.0, 0.1, 0.05),
            CPUPetriModel(1.0, 0.0, 0.1, 0.05),
            CPUPetriModel(1.0, 10.0, -0.1, 0.05),
            CPUPetriModel(1.0, 10.0, 0.1, -0.05),
        ],
        ids=["arrival_rate", "service_rate", "threshold", "power_up_delay"],
    )
    def test_cpu_rows_are_checked_like_the_builder(self, bad):
        with pytest.raises(ValueError):
            bad.build()
        models = [CPUPetriModel(1.0, 10.0, 0.1, 0.05), bad]
        with pytest.raises(ValueError):
            simulate_cpu_ensembles(models, [[1], [1]], 5.0)

    def test_packed_items_keep_their_own_horizon(self):
        p = NodeParameters()
        tasks = ((p, "closed", 5.0, 1), (p, "closed", 6.0, 2))
        assert pickle.dumps(simulate_node_ensemble_task(tasks), 5) == pickle.dumps(
            [simulate_node_task(t) for t in tasks], 5
        )

    def test_segments_of_three_durations_make_one_ensemble(self, monkeypatch):
        import repro.core.fast as fast

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(fast, "run_ensemble", counted)
        # Two churned nodes whose alive segments last 2, 3 and 1.5 s:
        # every segment is one row of a single ensemble.
        segments = (
            (NodeSegment(0.0, 2.0, 1.0, 1), NodeSegment(2.0, 3.0, 0.5, 2)),
            (NodeSegment(0.0, 2.0, 2.0, 3), NodeSegment(2.0, 1.5, 1.0, 4)),
        )
        tasks = tuple((NodeParameters(), "open", None, segs) for segs in segments)
        results = simulate_node_segments_ensemble_task(tasks)
        assert len(calls) == 1
        assert list(calls[0]) == [2.0, 3.0, 2.0, 1.5]
        assert results == [simulate_node_segments_task(t) for t in tasks]

    @staticmethod
    def _pair():
        net = PetriNet("pair")
        net.add_place("P", initial_tokens=3)
        net.add_place("Q")
        net.add_transition(
            "move",
            Exponential(1.0),
            inputs=["P"],
            outputs=["Q"],
            guard=tokens_gt("P", 1),
        )
        net.add_transition("back", Exponential(1.0), inputs=["Q"], outputs=["P"])
        return net

    @pytest.mark.parametrize(
        "name", ["nope", "Start_Receive"], ids=["unknown", "immediate"]
    )
    def test_row_timing_must_name_a_timed_transition(self, name):
        net = WSNNodeModel(NodeParameters()).build()
        with pytest.raises(ValueError, match=f"names '{name}', which is not"):
            run_ensemble(net, 5.0, [1, 2], row_timing={name: [Exponential(1.0)] * 2})

    def test_row_timing_needs_one_distribution_per_row(self):
        with pytest.raises(ValueError, match="1 distributions for 3 rows"):
            run_ensemble(
                self._pair(), 5.0, [1, 2, 3], row_timing={"move": [Exponential(1.0)]}
            )

    def test_results_are_a_read_only_sequence(self):
        def summary(result):
            return (
                result.firings,
                result.end_time,
                result.final_marking_counts,
                [result.occupancy(p) for p in ("P", "Q")],
                [result.stats.firing_count(t) for t in ("move", "back")],
            )

        results = run_ensemble(self._pair(), 5.0, [1, 2, 3])
        assert len(results) == 3
        assert summary(results[-1]) == summary(results[2])
        assert summary(results[-3]) == summary(results[0])
        assert [summary(r) for r in results] == [summary(r) for r in results]
        assert [summary(r) for r in results[1:]] == [
            summary(results[1]),
            summary(results[2]),
        ]
        assert summary(results[0]) != summary(results[1])
        with pytest.raises(IndexError):
            results[3]
        with pytest.raises(TypeError):
            results[0] = results[1]

    def test_no_node_models_give_no_results(self):
        assert simulate_node_ensembles([], [], 5.0) == []

    def test_no_cpu_models_give_no_results(self):
        assert simulate_cpu_ensembles([], [], 5.0) == []


def _bits(values: list[float]) -> bytes:
    """The exact IEEE-754 bytes of ``values`` (tells 0.0 from -0.0)."""
    return struct.pack(f"{len(values)}d", *values)


#: Replications 0, 2 and 3 of a four-replication seed plan: a batch
#: that skips one, as a store hole leaves it.
_REPS = (0, 2, 3)
_SEEDS = replication_seeds(2010, 4)


def _batch(point_task):
    """Two points' tasks at replications ``_REPS``, each point's together."""
    return tuple(
        point_task(point, r, _SEEDS[r]) for point in range(2) for r in _REPS
    )


_CPU_CFG = CPUComparisonConfig(horizon=20.0)
_CPU_TABLE = cpu_power_table()
_VALIDATION_CFGS = (
    ValidationConfig(n_events=5, petri_horizon=200.0, petri_warmup=10.0),
    ValidationConfig(n_events=5, petri_horizon=300.0, petri_warmup=10.0),
)

#: Every driver's ``(fn, ensemble_fn, task for (point, r, seed))``.
BATCHED_DRIVERS = {
    "node-sweep": (
        simulate_node_task,
        simulate_node_ensemble_task,
        lambda i, r, seed: (
            NodeParameters(power_down_threshold=(0.00178, 1.0)[i]),
            "closed",
            5.0,
            seed,
        ),
    ),
    "cpu-comparison": (
        _evaluate_cpu_point,
        _evaluate_cpu_point_ensemble,
        lambda i, r, seed: (
            (0.01, 0.5)[i],
            seed,
            0.3,
            _CPU_CFG,
            _CPU_TABLE,
            r == 0,
        ),
    ),
    "sensitivity": (
        _node_energy_task,
        _node_energy_ensemble_task,
        lambda i, r, seed: ((1.0, 2.0)[i], 0.00178, "closed", 5.0, seed),
    ),
    "validation": (
        _run_validation_rep,
        _run_validation_ensemble,
        lambda i, r, seed: (_VALIDATION_CFGS[i], seed),
    ),
    "network-bursty-nodes": (
        simulate_node_task,
        simulate_node_ensemble_task,
        lambda i, r, seed: (
            NodeParameters(arrival_rate=(0.5, 2.0)[i]),
            MMPPTraffic(2.0, 3.0, off_fraction=0.2).workload((0.5, 2.0)[i]),
            5.0,
            seed,
        ),
    ),
    "network-churn-segments": (
        simulate_node_segments_task,
        simulate_node_segments_ensemble_task,
        lambda i, r, seed: (
            NodeParameters(),
            "open",
            None,
            (NodeSegment(0.0, 3.0, (0.5, 2.0)[i], seed),)
            + ((NodeSegment(3.0, 2.0, 1.0, seed + 1),) if r else ()),
        ),
    ),
}


class TestBatchedTaskContract:
    """``ensemble_fn(tasks) == [fn(t) for t in tasks]``, per driver."""

    @pytest.mark.parametrize("driver", sorted(BATCHED_DRIVERS))
    def test_batch_returns_the_per_task_values(self, driver):
        fn, ensemble_fn, point_task = BATCHED_DRIVERS[driver]
        tasks = _batch(point_task)
        assert pickle.dumps(ensemble_fn(tasks), 5) == pickle.dumps(
            [fn(t) for t in tasks], 5
        )

    @pytest.mark.parametrize(
        "ensemble_fn, tasks, field",
        [
            (
                _evaluate_cpu_point_ensemble,
                (
                    (0.01, 1, 0.3, _CPU_CFG, _CPU_TABLE, True),
                    (0.01, 2, 0.3, CPUComparisonConfig(horizon=30.0), _CPU_TABLE, False),
                ),
                "config",
            ),
            (
                _node_energy_ensemble_task,
                ((1.0, 0.1, "closed", 5.0, 1), (1.0, 0.1, "open", 5.0, 2)),
                "workload",
            ),
        ],
        ids=["cpu-config", "sensitivity-workload"],
    )
    def test_batch_refuses_tasks_that_differ_in_run_settings(
        self, ensemble_fn, tasks, field
    ):
        with pytest.raises(ValueError, match=f"differ in {field}"):
            ensemble_fn(tasks)


class TestColumnReadouts:
    """The per-row columns equal the hydrated rows' read-outs, bit for bit."""

    @staticmethod
    def _assert_columns_match(results, net, predicates=()):
        rows = list(results)
        assert _bits(results.end_time.tolist()) == _bits([r.end_time for r in rows])
        for place in net.place_names:
            column = results.occupancy(place).tolist()
            assert _bits(column) == _bits([r.occupancy(place) for r in rows]), place
        for name in predicates:
            column = results.predicate_probability(name).tolist()
            assert _bits(column) == _bits(
                [r.predicate_probability(name) for r in rows]
            )
        for t in net.transition_names:
            column = results.firing_count(t).tolist()
            assert column == [r.stats.firing_count(t) for r in rows], t
            assert all(type(c) is int for c in column)

    def test_warmup_rows_count_only_post_warmup_firings(self):
        model = _wsn_model("open")
        net = model.build()
        predicates = {"cpu_active": VectorPredicate(model._cpu_active)}
        warm = run_ensemble(net, 30.0, SEEDS, warmup=10.0, predicates=predicates)
        self._assert_columns_match(warm, net, predicates)
        cold = run_ensemble(net, 30.0, SEEDS, predicates=predicates)
        counted = sum(warm.firing_count(t) for t in net.transition_names)
        assert (counted < [r.firings for r in warm]).all()
        assert (warm.firing_count("Start_Receive") < cold.firing_count("Start_Receive")).all()

    def test_rows_that_deadlock_at_time_zero_run_to_their_horizon(self):
        # A deadlocked marking is frozen: as in the interpreted run(),
        # its statistics keep accumulating up to the horizon.
        net = PetriNet("stuck")
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_place("C")
        net.add_transition("go", inputs=["A"], outputs=["C"])
        net.add_transition("never", Exponential(1.0), inputs=["B"], outputs=["A"])
        results = run_ensemble(net, 5.0, SEEDS)
        assert all(r.deadlocked for r in results)
        self._assert_columns_match(results, net)
        assert results.end_time.tolist() == [5.0] * len(SEEDS)
        assert _bits(results.occupancy("C").tolist()) == _bits([1.0] * len(SEEDS))
        assert results.firing_count("go").tolist() == [1] * len(SEEDS)
        for seed, row in zip(SEEDS, results):
            ref = simulate(net, horizon=5.0, seed=seed)
            assert (row.end_time, row.occupancy("C")) == (
                ref.end_time,
                ref.occupancy("C"),
            )

    def test_an_empty_ensemble_reads_empty_columns(self):
        model = _wsn_model("closed")
        net = model.build()
        results = run_ensemble(net, 5.0, [])
        assert list(results) == []
        self._assert_columns_match(results, net, ["cpu_active"])
        assert results.occupancy("Wait").shape == (0,)
        assert results.firing_count("T3").dtype == "int64"

    @pytest.mark.parametrize(
        "rows", [slice(1, 3), slice(None, None, -1), slice(3, None, -2), slice(2, 2)]
    )
    def test_a_slice_is_a_view_of_its_rows(self, rows):
        model = _wsn_model("closed")
        net = model.build()
        predicates = {"cpu_active": VectorPredicate(model._cpu_active)}
        results = run_ensemble(net, 20.0, [1, 2, 3, 4], predicates=predicates)
        view = results[rows]
        assert len(view) == len(range(4)[rows])
        self._assert_columns_match(view, net, predicates)
        for place in ("Wait", "CPU_Idle"):
            assert _bits(view.occupancy(place).tolist()) == _bits(
                results.occupancy(place)[rows].tolist()
            )
        # Slicing past the end of a reversed view leaves no rows.
        assert results[::-1][5:].end_time.tolist() == []


class TestAccountingFailures:
    """A power table that lacks a credited state fails alike in both engines."""

    def _model(self):
        table = PowerStateTable(
            "no-powerup", {"standby": 17.0, "idle": 88.0, "active": 193.0}
        )
        return WSNNodeModel(NodeParameters(), "closed", cpu_table=table)

    @pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
    def test_missing_state_raises_key_error(self, engine):
        model = self._model()
        with pytest.raises(KeyError) as err:
            if engine == "interpreted":
                model.simulate(5.0, seed=1)
            else:
                model.simulate_ensemble(5.0, [1, 2])
        assert err.value.args == (
            "state 'powerup' not in power table 'no-powerup'",
        )
