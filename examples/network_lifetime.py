#!/usr/bin/env python
"""Network-level energy optimisation: the energy-hole problem.

Composes the paper's node model into a 5-node chain relaying events to
a sink.  The node next to the sink relays everyone's traffic (5× the
event rate of the far node), so it drains first — the classic WSN
energy hole.  The example then asks the paper's Section VII question
at the network level: which ``Power_Down_Threshold`` maximises the
*network* lifetime (time to first node death)?

The final section scales the question up: a 100-node grid simulated
over a two-worker process pool, which is bit-identical to the serial
path — the worker count is an execution knob, not a modelling one.

Run:  python examples/network_lifetime.py
"""

from repro.energy import IMOTE2_3xAAA, format_table
from repro.experiments import NetworkScenarioConfig, run_network_lifetime_sweep
from repro.models import (
    GridTopology,
    LineTopology,
    NodeParameters,
    SensorNetworkModel,
)
from repro.runtime.config import ExecutionConfig

HORIZON = 200.0
BASE_RATE = 0.5  # events/s sensed by each node


def main() -> None:
    network = SensorNetworkModel(
        LineTopology(5),
        NodeParameters(power_down_threshold=0.01),
        IMOTE2_3xAAA,
    )

    # --- one run: the workload gradient and the hotspot -----------------
    result = network.simulate(horizon=HORIZON, seed=1, base_rate=BASE_RATE)
    print(
        format_table(
            ["node", "events/s", "mean power (mW)", "lifetime (days)"],
            [
                [n.node_id, n.event_rate, n.mean_power_mw, n.lifetime_days]
                for n in result.nodes
            ],
            title=f"{result.topology}; PDT = {result.power_down_threshold:g} s",
        )
    )
    print(
        f"hotspot: node {result.hotspot.node_id} "
        f"(dies after {result.network_lifetime_days:.1f} days; "
        f"lifetime imbalance {result.lifetime_imbalance():.2f}x)\n"
    )

    # --- threshold sweep on the network metric --------------------------
    sweeps = run_network_lifetime_sweep(
        NetworkScenarioConfig(
            topology=network.topology,
            horizon=HORIZON,
            base_rate=BASE_RATE,
            seed=1,
            thresholds=(1e-9, 0.00178, 0.01, 0.1, 1.0, 100.0),
            battery=network.battery,
        )
    ).results
    rows = [
        [r.power_down_threshold, r.total_energy_j, r.network_lifetime_days]
        for r in sweeps
    ]
    print(
        format_table(
            ["PDT (s)", "network energy (J)", "network lifetime (days)"],
            rows,
            title="Power_Down_Threshold vs network lifetime (first node death)",
        )
    )
    best = max(sweeps, key=lambda r: r.network_lifetime_days)
    print(
        f"\nbest threshold for the network: {best.power_down_threshold:g} s "
        f"-> {best.network_lifetime_days:.2f} days. Everything past the "
        "radio-phase crossover (0.00177 s) sits in a flat basin because the "
        "hotspot node's higher event rate leaves it few long idle gaps; "
        "immediate power-down remains clearly worst, as in Fig. 14."
    )

    # --- hundreds of nodes: two workers ----------------------------------
    grid_net = SensorNetworkModel(
        GridTopology(10, 10),
        NodeParameters(power_down_threshold=0.01),
        IMOTE2_3xAAA,
    )
    grid = grid_net.simulate(
        horizon=40.0, seed=1, base_rate=0.004, exec_cfg=ExecutionConfig(workers=2)
    )
    print(
        f"\n{grid.topology}, simulated over 2 workers: "
        f"hotspot node {grid.hotspot.node_id} "
        f"(relays {grid.hotspot.event_rate:g} events/s vs "
        f"{grid.nodes[-1].event_rate:g} at the far corner), "
        f"network lifetime {grid.network_lifetime_days:.1f} days, "
        f"imbalance {grid.lifetime_imbalance():.1f}x"
    )


if __name__ == "__main__":
    main()
