#!/usr/bin/env python
"""Parallel sweeps and replications with ``repro.runtime.map_sweep``.

Three escalating uses of the runtime:

1. a plain grid sweep fanned out over a process pool (``workers=4``),
2. the same sweep with 8 replications per point, so every grid point
   reports a mean ± 95 % t-interval instead of a point estimate,
3. the high-level driver equivalent — ``run_node_energy_sweep`` with
   ``workers``/``replications`` — which is what the CLI's
   ``repro node-sweep --workers 4 --replications 8`` calls.

Results are a pure function of the seed: re-running with any worker
count reproduces the identical numbers (the seed plan is spawned from
the root seed before any work is distributed).

Run:  PYTHONPATH=src python examples/parallel_sweep.py
"""

from repro.experiments import NodeSweepConfig, run_node_energy_sweep
from repro.models.wsn_node import NodeParameters, WSNNodeModel
from repro.runtime import map_sweep
from repro.runtime.config import ExecutionConfig

GRID = (1e-9, 0.0017, 0.00178, 0.01, 0.1, 1.0)
HORIZON_S = 30.0


def node_energy(threshold: float, seed: int) -> float:
    """Total closed-model node energy at one threshold (picklable)."""
    params = NodeParameters(power_down_threshold=threshold)
    return WSNNodeModel(params, "closed").simulate(HORIZON_S, seed=seed).total_energy_j


def main() -> None:
    print(f"== 1. grid sweep over {len(GRID)} points, workers=4 ==")
    parallel = ExecutionConfig(workers=4)
    for point in map_sweep(node_energy, GRID, seed=2010, exec_cfg=parallel):
        print(f"  PDT {point.threshold:<10g} {point.value:8.3f} J")

    print("\n== 2. same grid, 8 replications per point ==")
    replicated = parallel.with_overrides(replications=8)
    for point in map_sweep(node_energy, GRID, seed=2010, exec_cfg=replicated):
        ci = point.value.interval()
        print(
            f"  PDT {point.threshold:<10g} {ci.mean:8.3f} J "
            f"± {ci.half_width:.3f} (95% t, n={ci.batches})"
        )

    print("\n== 3. the Fig. 14 driver with the same knobs ==")
    sweep = run_node_energy_sweep(
        NodeSweepConfig(horizon=HORIZON_S, thresholds=GRID),
        exec_cfg=replicated,
    )
    t_opt, e_opt = sweep.optimum()
    print(f"  optimum threshold {t_opt:g} s at {e_opt:.3f} J (mean of 8 reps)")
    for threshold, run in zip(sweep.thresholds, sweep.runs):
        ci = run.interval(lambda result: result.total_energy_j)
        print(f"  PDT {threshold:<10g} {ci.mean:8.3f} J ± {ci.half_width:.3f}")


if __name__ == "__main__":
    main()
