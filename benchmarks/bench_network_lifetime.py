"""Extension bench: network-level lifetime optimisation (energy hole).

Composes the node model into a 5-node relay chain and optimises the
``Power_Down_Threshold`` for the *network* lifetime (time to the first
node death) — the deployment-level version of the paper's Section VII
question.  Asserts the energy-hole structure (sink-adjacent hotspot)
and that the single-node optimum band carries over to the network
metric.  See ``bench_parallel_scaling.py`` for the worker-scaling
timings of the network path.
"""

import pytest

from conftest import once, paper_claim, scaled, write_result
from repro.energy import IMOTE2_3xAAA, format_table
from repro.experiments import NetworkScenarioConfig, run_network_lifetime_sweep
from repro.models import LineTopology

THRESHOLDS = (1e-9, 0.00178, 0.01, 0.1, 1.0, 100.0)


@pytest.mark.benchmark(group="network")
def test_network_lifetime_sweep(benchmark):
    config = NetworkScenarioConfig(
        topology=LineTopology(5),
        horizon=scaled(300.0, 20.0),
        base_rate=0.5,
        seed=2010,
        thresholds=THRESHOLDS,
        battery=IMOTE2_3xAAA,
    )

    results = once(
        benchmark, lambda: run_network_lifetime_sweep(config).results
    )

    rows = [
        [
            r.power_down_threshold,
            r.total_energy_j,
            r.network_lifetime_days,
            r.hotspot.node_id,
            r.lifetime_imbalance(),
        ]
        for r in results
    ]
    text = format_table(
        [
            "PDT (s)",
            "network energy (J)",
            "network lifetime (d)",
            "hotspot node",
            "imbalance (x)",
        ],
        rows,
        title="Network lifetime vs Power_Down_Threshold "
        "(5-node relay chain, 0.5 events/s/node, 3xAAA per node)",
    )
    write_result("network_lifetime_sweep", text)

    # Energy hole: the sink-adjacent node is always the hotspot.
    paper_claim(all(r.hotspot.node_id == 1 for r in results))
    # The single-node optimum band carries over to the network metric.
    best = max(results, key=lambda r: r.network_lifetime_days)
    paper_claim(best.power_down_threshold in (0.00178, 0.01))
    # Lifetimes are materially imbalanced (the motivation for
    # location-aware power management in the WSN literature).
    paper_claim(results[2].lifetime_imbalance() > 1.3)


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
