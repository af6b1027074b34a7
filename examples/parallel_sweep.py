#!/usr/bin/env python
"""Parallel sweeps and replications with ``run_node_energy_sweep``.

Two uses of the runtime through the Fig. 14 driver:

1. a grid sweep run serially (``workers=1``) and over a process pool
   (``workers=4``) — the numbers are identical, because the seed plan
   is spawned from the root seed before any work is distributed;
2. the same sweep with 8 replications per point, so every grid point
   reports a mean ± 95 % t-interval instead of a point estimate.

This is what the CLI's ``repro node-sweep --workers 4 --replications 8``
runs.

Run:  PYTHONPATH=src python examples/parallel_sweep.py
"""

from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.runtime import ExecutionConfig

GRID = (1e-9, 0.0017, 0.00178, 0.01, 0.1, 1.0)
CFG = NodeSweepConfig(horizon=30.0, thresholds=GRID)


def main() -> None:
    print(f"== 1. grid sweep over {len(GRID)} points, workers=1 vs 4 ==")
    serial = run_node_energy_sweep(CFG, exec_cfg=ExecutionConfig(workers=1))
    parallel = run_node_energy_sweep(CFG, exec_cfg=ExecutionConfig(workers=4))
    for threshold, e1, e4 in zip(
        GRID, serial.total_energy_j, parallel.total_energy_j
    ):
        print(f"  PDT {threshold:<10g} {e1:8.3f} J  (workers=4: {e4:8.3f} J)")
    assert serial.total_energy_j == parallel.total_energy_j
    print("  identical across worker counts")

    print("\n== 2. same grid, 8 replications per point ==")
    sweep = run_node_energy_sweep(
        CFG, exec_cfg=ExecutionConfig(workers=4, replications=8)
    )
    for threshold, run in zip(sweep.thresholds, sweep.runs):
        ci = run.interval(lambda result: result.total_energy_j)
        print(
            f"  PDT {threshold:<10g} {ci.mean:8.3f} J "
            f"± {ci.half_width:.3f} (95% t, n={ci.batches})"
        )
    t_opt, e_opt = sweep.optimum()
    print(f"  optimum threshold {t_opt:g} s at {e_opt:.3f} J (mean of 8 reps)")


if __name__ == "__main__":
    main()
