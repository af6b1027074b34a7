"""Result-store reuse: cold vs warm wall time on the Figs. 14/15 grid.

Runs the closed-model threshold sweep three times against one
content-addressed store: cold (every replication simulated and
cached), warm (every replication served from disk), and a top-up at
double the replication count (cached prefix served, only the new
suffix simulated).  Records the wall-time saving of each reuse path.

Hard gates, independent of host speed:

* the warm run recomputes nothing (zero store misses) and is
  bit-identical to the cold run at every (point, replication), and
* the top-up run simulates exactly the replication delta while
  matching a from-scratch run at the larger count bit for bit.

The wall-time savings are hardware-dependent and only recorded; at
paper scale the warm run must still beat the cold run (simulating 15
minutes of model time costs far more than unpickling it).
"""

import os
import pickle
import tempfile
import time

import pytest

from conftest import once, paper_claim, scaled, write_result
from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.runtime import ResultStore
from repro.runtime.config import ExecutionConfig, ResolvedExecution

HORIZON_S = scaled(60.0, 2.0)
REPLICATIONS = scaled(8, 2)
CONFIG = NodeSweepConfig(workload="closed", horizon=HORIZON_S, seed=2010)


def _timed(fn):
    start = time.perf_counter()
    return fn(), time.perf_counter() - start


def _fingerprint(result):
    return [pickle.dumps(r, 5) for point in result.replicates for r in point]


@pytest.mark.benchmark(group="store-reuse")
def test_store_reuse_cold_warm_topup(benchmark):
    with tempfile.TemporaryDirectory() as d:
        store = ResultStore(d)
        run = lambda reps: run_node_energy_sweep(  # noqa: E731
            CONFIG, exec_cfg=ResolvedExecution(replications=reps, store=store)
        )

        cold, cold_s = _timed(lambda: run(REPLICATIONS))
        store.hits = store.misses = 0
        warm, warm_s = once(benchmark, lambda: _timed(lambda: run(REPLICATIONS)))

        # Hard gate 1: the warm run is a pure read.
        assert store.misses == 0, "warm run must not recompute anything"
        assert _fingerprint(warm) == _fingerprint(cold)

        # Hard gate 2: topping up serves the prefix, simulates the delta.
        store.hits = store.misses = 0
        topped, topup_s = _timed(lambda: run(2 * REPLICATIONS))
        n_points = len(CONFIG.thresholds)
        assert store.hits == n_points * REPLICATIONS
        assert store.misses == n_points * REPLICATIONS
        scratch, scratch_s = _timed(
            lambda: run_node_energy_sweep(
                CONFIG, exec_cfg=ExecutionConfig(replications=2 * REPLICATIONS)
            )
        )
        assert _fingerprint(topped) == _fingerprint(scratch)

        paper_claim(warm_s < 0.5 * cold_s, "warm must beat cold at paper scale")
        paper_claim(topup_s < scratch_s, "top-up must beat from-scratch")

        stats = store.stats()
        text = "\n".join(
            [
                "Result-store reuse: Figs. 14/15 23-point closed sweep "
                f"({HORIZON_S:.0f} s horizon, seed {CONFIG.seed}, "
                f"{REPLICATIONS} replications/point)",
                f"  host cores          : {os.cpu_count()}",
                f"  cold  (all computed): {cold_s:7.2f} s "
                f"({n_points * REPLICATIONS} simulations cached)",
                f"  warm  (all cached)  : {warm_s:7.2f} s "
                f"({cold_s / warm_s:6.1f}x, zero misses asserted)",
                f"  top-up to {2 * REPLICATIONS:2d}/point  : {topup_s:7.2f} s "
                f"vs {scratch_s:7.2f} s from scratch "
                f"({scratch_s / topup_s:4.1f}x; prefix served, "
                "delta simulated, bit-identical — asserted)",
                f"  store               : {stats.entries} entries, "
                f"{stats.total_bytes / 1e6:.1f} MB",
                "  warm replicates     : bit-identical to cold at every "
                "(point, replication) (asserted)",
            ]
        )
        write_result("store_reuse", text)


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
