"""Parallel runtime scaling: the Figs. 14/15 sweep and a network grid.

Runs the full 23-point closed-model threshold grid through
``run_node_energy_sweep`` twice — ``workers=1`` (the bit-identical
serial fallback) and ``workers=4`` — and records per-configuration
throughput (grid points per second) and the speedup.  A second section
does the same for the network path: a 100-node ``GridTopology``
scenario at ``workers=1`` vs ``workers=4``, its nodes chunked over the
pool.  The per-point results must be numerically identical at a fixed
seed regardless of worker count; those assertions are the hard
gate.  The speedups themselves are hardware-dependent (a 4-worker pool
needs ≥ 4 cores to approach 4×), so they are recorded, not asserted —
and on a host with fewer than two cores the bench *refuses to record*:
the hard identity gates still run and the numbers are echoed, but
``results/`` is left untouched, because a "0.9x" measured there is
pool overhead, not scaling.  The recorded artifacts carry a refusal
stamp until a multi-core runner re-baselines them.

The horizon is shortened from the paper's 900 s to keep the double run
benchmark-sized; the task structures (23 independent node simulations;
100 independent grid nodes) are identical to the paper-scale
artifacts.
"""

import os
import time

import pytest

from conftest import once, scaled, write_result
from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.models import GridTopology, NodeParameters, SensorNetworkModel
from repro.runtime.config import ExecutionConfig

HORIZON_S = scaled(60.0, 4.0)
WORKERS = scaled(4, 2)
CONFIG = NodeSweepConfig(workload="closed", horizon=HORIZON_S, seed=2010)

GRID = GridTopology(*scaled((10, 10), (3, 3)))
GRID_HORIZON_S = scaled(30.0, 4.0)
GRID_BASE_RATE = 0.004  # hotspot at 0.4 events/s stays unsaturated


def _timed_sweep(workers):
    start = time.perf_counter()
    sweep = run_node_energy_sweep(CONFIG, exec_cfg=ExecutionConfig(workers=workers))
    return sweep, time.perf_counter() - start


def _timed_grid(workers):
    network = SensorNetworkModel(
        GRID, NodeParameters(power_down_threshold=0.01)
    )
    start = time.perf_counter()
    result = network.simulate(
        GRID_HORIZON_S,
        seed=2010,
        base_rate=GRID_BASE_RATE,
        exec_cfg=ExecutionConfig(workers=workers),
    )
    return result, time.perf_counter() - start


def _speedup_lines(label, serial_s, parallel_s):
    """Speedup report lines (only emitted on recordable hosts)."""
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    return [f"  {label}: {speedup:6.2f}x"]


def _record_or_refuse(name, text):
    """Persist via ``write_result`` — unless the host can't scale.

    A scaling number measured on fewer than two cores is pool overhead
    wearing a speedup's clothes; recording it would poison the
    baseline.  The hard identity gates have already run by the time we
    get here, so the bench still *verifies* on any host — it just
    refuses to put single-core timings in ``results/``.
    """
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            f"\n{text}\n[refusing to record {name}: os.cpu_count()={cores} "
            "< 2 — these timings measure pool overhead, not scaling; "
            "re-baseline on a multi-core runner]"
        )
        return
    write_result(name, text)


@pytest.mark.benchmark(group="parallel-scaling")
def test_parallel_scaling_fig14_grid(benchmark):
    serial, serial_s = _timed_sweep(1)
    parallel, parallel_s = once(benchmark, lambda: _timed_sweep(WORKERS))

    # Hard gate: worker count must never change the numbers.
    assert parallel.total_energy_j == serial.total_energy_j
    assert parallel.optimum() == serial.optimum()

    n = len(CONFIG.thresholds)
    text = "\n".join(
        [
            "Parallel scaling: Figs. 14/15 23-point closed sweep "
            f"({HORIZON_S:.0f} s horizon, seed {CONFIG.seed})",
            f"  host cores          : {os.cpu_count()}",
            f"  serial   (workers=1): {serial_s:8.2f} s "
            f"({n / serial_s:6.2f} points/s)",
            f"  parallel (workers={WORKERS}): {parallel_s:8.2f} s "
            f"({n / parallel_s:6.2f} points/s)",
            *_speedup_lines("speedup             ", serial_s, parallel_s),
            "  per-point results   : numerically identical (asserted)",
        ]
    )
    _record_or_refuse("parallel_scaling", text)


@pytest.mark.benchmark(group="parallel-scaling")
def test_network_grid_scaling(benchmark):
    serial, serial_s = _timed_grid(workers=1)
    parallel, parallel_s = once(benchmark, lambda: _timed_grid(workers=WORKERS))

    # Hard gate: worker count must never change the numbers.
    assert parallel == serial

    n = GRID.n_nodes
    text = "\n".join(
        [
            f"Network grid scaling: {GRID.describe()} "
            f"({GRID_HORIZON_S:.0f} s horizon, {GRID_BASE_RATE:g} events/s "
            "base rate, seed 2010)",
            f"  host cores          : {os.cpu_count()}",
            f"  serial   (workers=1): {serial_s:8.2f} s "
            f"({n / serial_s:6.2f} nodes/s)",
            f"  parallel (workers={WORKERS}): "
            f"{parallel_s:8.2f} s ({n / parallel_s:6.2f} nodes/s)",
            *_speedup_lines("speedup             ", serial_s, parallel_s),
            "  NetworkResult       : identical to serial (asserted)",
        ]
    )
    _record_or_refuse("network_grid_scaling", text)


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
