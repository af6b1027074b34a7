"""Extension bench: generated-topology scale (100 → 1000 nodes).

Times a full churning, bursty network run on random geometric
deployments of growing size — the scenario-diversity subsystem's
answer to "does the generated-topology path actually scale?".  Each
run goes through the process pool exactly as the ``geo1000.yaml``
gallery scenario does; recorded columns are wall
time, simulated events, and events/s of end-to-end throughput.

Scale-free gates stay active in smoke mode: topology generation is
asserted seed-deterministic and the four-worker run bit-identical to
the serial one at the smallest size.
"""

import time

import pytest

from conftest import once, paper_claim, scaled, write_result
from repro.energy import format_table
from repro.models import NodeParameters, SensorNetworkModel
from repro.runtime.config import ExecutionConfig
from repro.topology import ChurnModel, MMPPTraffic, RandomGeometricTopology

SIZES = (100, 400, 1000)
SEED = 2010
BASE_RATE = 0.1


def build_network(n_nodes):
    return SensorNetworkModel(
        RandomGeometricTopology(n_nodes, seed=SEED),
        NodeParameters(power_down_threshold=0.01),
        dynamics=ChurnModel(failure_rate=1e-4, duty_spread=0.2),
        traffic=MMPPTraffic(burst_on_s=5.0, burst_off_s=15.0),
    )


def run_one(n_nodes, horizon):
    start = time.perf_counter()
    result = build_network(n_nodes).simulate(
        horizon=horizon,
        seed=SEED,
        base_rate=BASE_RATE,
        exec_cfg=ExecutionConfig(workers=4),
    )
    wall_s = time.perf_counter() - start
    events = sum(node.events_completed for node in result.nodes)
    return result, wall_s, events


@pytest.mark.benchmark(group="topology")
def test_topology_scale(benchmark):
    horizon = scaled(120.0, 2.0)

    # Scale-free gates first, at the cheapest size: the generator is a
    # pure function of its seed, and workers never change numbers.
    small = RandomGeometricTopology(SIZES[0], seed=SEED)
    assert small.tree_parents() == (
        RandomGeometricTopology(SIZES[0], seed=SEED).tree_parents()
    )
    serial = build_network(SIZES[0]).simulate(
        horizon=horizon, seed=SEED, base_rate=BASE_RATE
    )
    parallel, _, _ = run_one(SIZES[0], horizon)
    assert parallel == serial

    def sweep():
        return [run_one(n, horizon) for n in SIZES]

    runs = once(benchmark, sweep)

    rows = []
    for n, (result, wall_s, events) in zip(SIZES, runs):
        assert len(result.nodes) == n
        rows.append(
            [n, horizon, wall_s, events, events / wall_s if wall_s else 0.0]
        )
    text = format_table(
        [
            "nodes",
            "horizon (s)",
            "wall (s)",
            "events",
            "events/s",
        ],
        rows,
        title="Generated-topology scale: churning bursty geometric "
        f"deployments, workers=4, seed {SEED}",
    )
    write_result("topology_scale", text)

    # At paper scale the 1000-node run must finish in minutes, not
    # hours, and throughput must not collapse with size (the per-node
    # cost is flat; only the relay load near the sink grows).
    paper_claim(rows[-1][2] < 600.0, "1000-node run exceeded 10 minutes")
    paper_claim(
        rows[-1][4] > rows[0][4] / 10.0,
        "throughput collapsed between 100 and 1000 nodes",
    )


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
