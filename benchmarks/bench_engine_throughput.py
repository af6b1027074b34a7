"""Ablation A3: engine event-loop throughput — the engine scoreboard.

Microbenchmarks of the simulation engine itself: firings per second on
(a) the Fig. 3 CPU net, (b) the full Fig. 12 node net, and (c) a
synthetic wide net with many concurrently enabled timed transitions.
These are true pytest-benchmark microbenchmarks (multiple rounds) —
they quantify the paper's "long simulation time" remark for our
substrate.

The final test is the vectorized-engine scoreboard: the full WSN node
net at the paper's 900 s evaluation horizon, one replication ensemble
run first through the interpreted engine (per-seed Python loop), then
through ``repro.core.fast`` in lockstep.  Bit-identity of every
replication is the hard gate; the recorded events/sec pair
(``results/engine_throughput.txt``) is the before/after scoreboard,
and the ≥ 5x speedup is asserted at paper scale.
"""

import time

import pytest

from conftest import once, paper_claim, scaled, write_result
from repro.core import Exponential, PetriNet, Simulation
from repro.core.fast import run_ensemble
from repro.models import NodeParameters, build_cpu_petri_net, build_wsn_node_net
from repro.models.workload import ClosedWorkload
from repro.runtime.seeding import replication_seeds


@pytest.mark.benchmark(group="engine-throughput")
def test_throughput_cpu_net(benchmark):
    def run():
        net = build_cpu_petri_net(1.0, 10.0, 0.1, 0.3)
        sim = Simulation(net, seed=1)
        result = sim.run(scaled(2000.0, 100.0))
        return result.firings

    firings = benchmark(run)
    assert firings > scaled(1000, 10)


@pytest.mark.benchmark(group="engine-throughput")
def test_throughput_node_net(benchmark):
    def run():
        net = build_wsn_node_net(
            NodeParameters(power_down_threshold=0.01), ClosedWorkload(1.0)
        )
        sim = Simulation(net, seed=1)
        result = sim.run(scaled(200.0, 20.0))
        return result.firings

    firings = benchmark(run)
    assert firings > scaled(1000, 10)


@pytest.mark.benchmark(group="engine-throughput")
def test_throughput_wide_net(benchmark):
    """Fork-join fan of 20 parallel exponential stages."""

    def build():
        net = PetriNet("wide")
        net.add_place("hub", initial_tokens=20)
        for i in range(20):
            net.add_place(f"stage{i}")
            net.add_transition(
                f"out{i}", Exponential(1.0 + 0.1 * i),
                inputs=["hub"], outputs=[f"stage{i}"],
            )
            net.add_transition(
                f"back{i}", Exponential(2.0), inputs=[f"stage{i}"], outputs=["hub"],
            )
        return net

    def run():
        sim = Simulation(build(), seed=2)
        return sim.run(scaled(100.0, 10.0)).firings

    firings = benchmark(run)
    assert firings > scaled(1000, 10)


#: Scoreboard shape: the paper's 15-minute node horizon, with an
#: ensemble size typical of an adaptive-replication sweep point.  The
#: lockstep engine amortises its per-round overhead across the
#: ensemble, so throughput grows with R (measured ratios:
#: docs/architecture.md, "When each wins").
SCOREBOARD_HORIZON_S = scaled(900.0, 20.0)
SCOREBOARD_REPLICATIONS = scaled(128, 4)
SCOREBOARD_SEED = 2010


def _scoreboard_net():
    return build_wsn_node_net(
        NodeParameters(power_down_threshold=0.00178), ClosedWorkload(1.0)
    )


@pytest.mark.benchmark(group="engine-throughput")
def test_vectorized_engine_scoreboard(benchmark):
    """Interpreted vs vectorized events/sec on the paper's node model."""
    seeds = replication_seeds(SCOREBOARD_SEED, SCOREBOARD_REPLICATIONS)

    start = time.perf_counter()
    interpreted = [
        Simulation(_scoreboard_net(), seed=s).run(SCOREBOARD_HORIZON_S)
        for s in seeds
    ]
    interpreted_s = time.perf_counter() - start

    def run_vectorized():
        start = time.perf_counter()
        results = run_ensemble(_scoreboard_net(), SCOREBOARD_HORIZON_S, seeds)
        return results, time.perf_counter() - start

    vectorized, vectorized_s = once(benchmark, run_vectorized)

    # Hard gate (scale-free): the lockstep run must be bit-identical to
    # the interpreted engine on every replication.
    for ref, vec in zip(interpreted, vectorized):
        assert vec.firings == ref.firings
        assert vec.final_marking_counts == ref.final_marking_counts
        assert vec.end_time == ref.end_time

    events = sum(r.firings for r in interpreted)
    interp_rate = events / interpreted_s
    vec_rate = events / vectorized_s
    speedup = vec_rate / interp_rate if interp_rate else float("inf")
    # The ISSUE 6 acceptance bar, asserted at paper scale only (tiny
    # smoke ensembles can't amortise the lockstep setup).
    paper_claim(
        speedup >= 5.0,
        f"vectorized engine speedup {speedup:.1f}x < 5x "
        f"(interpreted {interp_rate:,.0f} ev/s, vectorized {vec_rate:,.0f} ev/s)",
    )

    text = "\n".join(
        [
            "Engine scoreboard: WSN node net, closed workload "
            f"({SCOREBOARD_HORIZON_S:.0f} s horizon, "
            f"{SCOREBOARD_REPLICATIONS} replications, "
            f"seed {SCOREBOARD_SEED})",
            f"  events per replication ensemble: {events:,}",
            f"  interpreted (before): {interpreted_s:8.2f} s "
            f"({interp_rate:10,.0f} events/s)",
            f"  vectorized  (after) : {vectorized_s:8.2f} s "
            f"({vec_rate:10,.0f} events/s)",
            f"  speedup             : {speedup:6.2f}x (acceptance bar: 5x)",
            "  per-replication results: bit-identical (asserted)",
        ]
    )
    write_result("engine_throughput", text)


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
