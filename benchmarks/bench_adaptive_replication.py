"""Adaptive replication control vs a fixed replication count.

Runs the Figs. 14/15 closed-model threshold grid to a CI-width target
twice: once with the fixed ``replications=MAX_R`` budget every point
would need under worst-case planning, once adaptively
(``ci_target=CI_TARGET``), and records the replication and wall-time
saving.  The grid is deliberately heterogeneous: sub-millisecond
thresholds barely perturb the workload (tight intervals after a couple
of replications) while the near-1 s crossover region is noisy — which
is exactly the case where per-point stopping wins.

Two hard gates, independent of host speed:

* the adaptive run's replicates are a bit-identical prefix of the
  fixed run's at every point (the reproducibility contract), and
* the adaptive run never executes more replications than the fixed
  budget (with at least one point below it on this grid).

The replication saving is a deterministic function of the seed, so it
is recorded *and* asserted; wall times are hardware-dependent and only
recorded.
"""

import os
import time

import pytest

from conftest import once, paper_claim, scaled, write_result
from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.runtime.config import ExecutionConfig

HORIZON_S = scaled(60.0, 4.0)
CI_TARGET = scaled(0.10, 0.5)
MAX_R = scaled(16, 4)
CONFIG = NodeSweepConfig(workload="closed", horizon=HORIZON_S, seed=2010)


def _timed(fn):
    start = time.perf_counter()
    return fn(), time.perf_counter() - start


@pytest.mark.benchmark(group="adaptive-replication")
def test_adaptive_vs_fixed_replication_budget(benchmark):
    fixed, fixed_s = _timed(
        lambda: run_node_energy_sweep(
            CONFIG, exec_cfg=ExecutionConfig(replications=MAX_R)
        )
    )
    adaptive, adaptive_s = once(
        benchmark,
        lambda: _timed(
            lambda: run_node_energy_sweep(
                CONFIG,
                exec_cfg=ExecutionConfig(
                    ci_target=CI_TARGET, max_replications=MAX_R
                ),
            )
        ),
    )

    # Hard gate 1: prefix reproducibility at every grid point.
    for fixed_reps, adaptive_reps in zip(fixed.replicates, adaptive.replicates):
        k = len(adaptive_reps)
        assert [r.total_energy_j for r in adaptive_reps] == [
            r.total_energy_j for r in fixed_reps[:k]
        ]

    # Hard gate 2: the controller only ever saves replications.
    n_points = len(CONFIG.thresholds)
    fixed_total = n_points * MAX_R
    counts = [run.replications for run in adaptive.runs]
    adaptive_total = sum(counts)
    assert adaptive_total <= fixed_total
    paper_claim(min(counts) < MAX_R)

    n_converged = sum(run.converged for run in adaptive.runs)
    text = "\n".join(
        [
            "Adaptive replication control: Figs. 14/15 23-point closed "
            f"sweep ({HORIZON_S:.0f} s horizon, seed {CONFIG.seed}, "
            f"ci-target {CI_TARGET:g}, max {MAX_R} replications/point)",
            f"  host cores            : {os.cpu_count()}",
            f"  fixed    ({MAX_R:2d}/point)   : {fixed_total:4d} replications "
            f"in {fixed_s:7.2f} s",
            f"  adaptive (ci-target)  : {adaptive_total:4d} replications "
            f"in {adaptive_s:7.2f} s",
            f"  replication saving    : "
            f"{(1 - adaptive_total / fixed_total) * 100:5.1f}% "
            "(deterministic at this seed; asserted <= fixed)",
            f"  wall-time saving      : "
            f"{(1 - adaptive_s / fixed_s) * 100:5.1f}% (host-dependent)",
            f"  converged points      : {n_converged}/{n_points} "
            f"(rest capped at {MAX_R})",
            f"  replications per point: {counts}",
            "  adaptive replicates   : bit-identical prefix of the fixed "
            "run at every point (asserted)",
        ]
    )
    write_result("adaptive_replication", text)


if __name__ == "__main__":
    from conftest import bench_main

    raise SystemExit(bench_main(__file__))
