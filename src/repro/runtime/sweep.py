"""``map_sweep`` — the public parallel grid/replication API.

A sweep is a grid of design points, each evaluated ``replications``
times with independent seeds.  The seed plan is a two-level
:meth:`~numpy.random.SeedSequence.spawn` tree (root → point →
replication) computed up-front, so the result is a pure function of
``(seed, grid, replications)`` — independent of ``workers``, chunking
and the multiprocessing start method.

Example
-------
>>> from repro.runtime import map_sweep
>>> def noisy_square(x, seed):
...     import numpy as np
...     return x * x + np.random.default_rng(seed).normal(0.0, 0.1)
>>> from repro.runtime import ExecutionConfig
>>> points = map_sweep(
...     noisy_square, [1.0, 2.0], seed=7,
...     exec_cfg=ExecutionConfig(replications=8),
... )
>>> points[0].value.interval().contains(1.0)
True

With ``workers > 1`` the evaluate callable must be defined at module
level (picklable); with the default ``workers=1`` any callable works.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from ..core.statistics import ConfidenceInterval, replication_interval
from ..experiments.sweep import SweepPoint
from .adaptive import run_replications
from .config import ExecutionConfig, ResolvedExecution, as_resolved
from .seeding import sequence_to_seed

__all__ = ["ReplicatedValue", "map_sweep"]

T = TypeVar("T")


@dataclass(frozen=True)
class ReplicatedValue:
    """Per-replication values of one sweep point plus their seeds.

    ``converged`` is ``None`` for fixed-count sweeps; under adaptive
    replication control (``ci_target=``) it records whether the point
    met the relative half-width target before ``max_replications``.
    """

    values: tuple[Any, ...]
    seeds: tuple[int, ...]
    converged: bool | None = None

    @property
    def replications(self) -> int:
        """Replications backing this point."""
        return len(self.values)

    def mean(self) -> float:
        """Across-replication mean (values must be numeric)."""
        return float(np.mean([float(v) for v in self.values]))

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t confidence interval across replications."""
        return replication_interval(
            [float(v) for v in self.values], confidence
        )


def _evaluate_task(
    task: tuple[Callable[[float, int], Any], float, int],
) -> Any:
    evaluate, threshold, seed = task
    return evaluate(threshold, seed)


def map_sweep(
    evaluate: Callable[[float, int], T],
    thresholds: Sequence[float],
    *,
    seed: int | None = None,
    exec_cfg: ExecutionConfig | ResolvedExecution | None = None,
) -> list[SweepPoint]:
    """Evaluate ``evaluate(threshold, seed)`` over a grid, in parallel.

    Parameters
    ----------
    evaluate:
        ``(threshold, seed) -> value``.  Must be module-level
        (picklable) when ``workers > 1``.
    thresholds:
        The design-point grid; result order matches it.
    seed:
        Root of the seed spawn tree.  ``None`` draws fresh OS entropy
        (still collision-free, not reproducible across calls).
    exec_cfg:
        An :class:`~repro.runtime.config.ExecutionConfig` (or resolved
        :class:`~repro.runtime.config.ResolvedExecution`); default
        serial, one replication, no store.  Its fields act as follows:

        * ``workers`` / ``backend`` place the work and never affect the
          returned values.
        * ``replications`` — independent evaluations per point.  With
          one replication each :class:`SweepPoint.value` is the bare
          evaluate result; otherwise it is a :class:`ReplicatedValue`.
        * ``ci_target`` switches to *adaptive replication control*
          (:mod:`repro.runtime.adaptive`): every point runs rounds of
          replications until its across-replication interval satisfies
          ``relative_half_width() <= ci_target`` or ``max_replications``
          is reached.  ``replications`` (at least 2) is then the
          per-point floor, values must be float-convertible, and
          every value is a :class:`ReplicatedValue` whose ``converged``
          flag and length report the outcome.  Seeds come from the same
          two-level spawn tree, sized at ``max_replications`` per
          point, so an adaptive run is a bit-identical prefix of the
          fixed ``replications=max_replications`` run at the same seed.
        * ``engine`` does not apply: ``evaluate`` is an opaque
          callable, so it runs once per replication.
        * ``store`` memoizes per-replication values, keyed by the
          per-replication task ``(evaluate, threshold, seed)``, so every
          backend shares one cache.

    Returns
    -------
    list[SweepPoint]
        One point per threshold, in grid order.
    """
    rx = as_resolved(exec_cfg)
    grid = [float(t) for t in thresholds]
    point_seqs = np.random.SeedSequence(seed).spawn(len(grid))
    seeds = [
        [sequence_to_seed(s) for s in ps.spawn(rx.seed_plan_size)]
        for ps in point_seqs
    ]
    runs = run_replications(
        _evaluate_task,
        lambda i, r: (evaluate, grid[i], seeds[i][r]),
        len(grid),
        rx,
    )
    out: list[SweepPoint] = []
    for i, (t, run) in enumerate(zip(grid, runs)):
        if run.replications == 1:
            out.append(SweepPoint(t, run.values[0]))
        else:
            out.append(
                SweepPoint(
                    t,
                    ReplicatedValue(
                        tuple(run.values),
                        tuple(seeds[i][: run.replications]),
                        converged=run.converged,
                    ),
                )
            )
    return out
