"""Adaptive replication control: run each point until its CI is tight.

A fixed ``--replications`` count spends the same effort on every sweep
point — wasteful on low-variance points, under-powered on noisy ones.
This module replaces the fixed count with a *sequential, rounds-based
stopping rule*: evaluate every still-open point a floor of replications
at a time through the shared :class:`~repro.runtime.ParallelExecutor`,
recompute each point's across-replication
:func:`~repro.core.statistics.replication_interval` after the round,
and close a point once ``relative_half_width() <= ci_target`` (or it
hits ``max_replications``).  Points stop independently, so
heterogeneous sweeps finish in the time of their noisiest point's need,
not ``n_points × max_replications``.

The same round loop is the one dispatch every driver uses:
:func:`run_replications` reads the replication policy and engine from
a :class:`~repro.runtime.config.ResolvedExecution`, and a fixed count
is simply the first round with no stopping rule.

Reproducibility contract
------------------------
Per-point seed plans are fixed *before* any work runs and always cover
the full ``max_replications``; the controller merely consumes a prefix.
:meth:`numpy.random.SeedSequence.spawn` hands out the same first ``k``
children regardless of how many siblings are eventually spawned, so the
replications an adaptive run executes are a **bit-identical prefix** of
the fixed ``max_replications`` run at the same seed — for every
``workers`` setting, chunking and start method.  Convergence decisions
are made in the parent from the gathered values only, so they cannot
depend on execution order either.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Any

from ..core.statistics import replication_interval
from .config import ResolvedExecution
from .executor import ParallelExecutor
from .store import ResultStore, task_key

__all__ = [
    "LOCKSTEP_MIN_ROWS",
    "AdaptivePointRun",
    "run_replications",
    "shared_field",
]

#: Fewest tasks one lockstep ensemble is given; a smaller batch runs
#: ``fn`` once per task.  A lockstep step costs a fixed set of NumPy
#: calls whatever the row count, so a narrow ensemble loses to the
#: interpreted loop.  Measured on a 2-core host (Python 3.11, NumPy
#: 2.4), rows of one model: the closed node net broke even at about 3
#: rows, the open node net between 6 and 8 and the validation net at 4;
#: one validation row ran at 0.2x, and at 8 rows lockstep ran 1.3x
#: (open node), 2.1x (validation) and 2.9x (closed node) as fast.
LOCKSTEP_MIN_ROWS = 8


@dataclass
class AdaptivePointRun:
    """One point's outcome under the replication controller.

    ``values`` holds the raw evaluation results in replication order —
    by the seed-plan contract, a bit-identical prefix of the fixed
    ``max_replications`` run.  ``converged`` is ``None`` for a
    fixed-count run, which has no stopping rule.
    """

    values: list[Any]
    converged: bool | None = None

    @property
    def replications(self) -> int:
        """Replications actually executed for this point."""
        return len(self.values)


def _metric_values(
    metrics: Callable[[Any], float | Sequence[float]], value: Any
) -> tuple[float, ...]:
    out = metrics(value)
    if isinstance(out, (tuple, list)):
        return tuple(float(v) for v in out)
    return (float(out),)


def run_replications(
    fn: Callable[[Any], Any],
    task_for: Callable[[int, int], Any],
    n_points: int,
    rx: ResolvedExecution,
    *,
    ensemble_fn: Callable[[tuple[Any, ...]], list[Any]] | None = None,
    metrics: Callable[[Any], float | Sequence[float]] = float,
) -> list[AdaptivePointRun]:
    """Replicate ``n_points`` design points the way ``rx`` asks.

    The one dispatch from a driver to a backend, and the one stopping
    rule.  The replication policy and the engine both come from ``rx``:

    * **fixed count** (``rx.ci_target is None``) — one round of
      ``rx.replications`` per point, with no stopping rule: one
      :meth:`ParallelExecutor.map` call over every miss;
    * **adaptive** — a first round of the floor ``max(2,
      rx.replications)`` per point (one replication has an infinite
      half-width), then rounds adding the same floor to every open
      point.  A point closes once the 95% interval of every ``metrics``
      value has ``relative_half_width() <= rx.ci_target``, or at
      ``rx.max_replications``;
    * ``rx.engine == "vectorized"`` batches each round's missing
      ``task_for`` tasks through ``ensemble_fn``, at most one task
      tuple per executor slot and none below
      :data:`LOCKSTEP_MIN_ROWS` tasks; a smaller round, a run without
      ``ensemble_fn`` and the interpreted engine make one ``fn`` call
      per replication.

    Parameters
    ----------
    fn:
        The task evaluator (module-level/picklable when the executor
        runs with ``workers > 1``).
    task_for:
        ``(point_index, replication_index) -> item`` — called in the
        parent, so it may close over local state; the returned items
        must be picklable for a multi-process executor.  It must be a
        pure function of its indices: task ``(i, r)`` is identical
        whenever it is requested, which is what makes an adaptive run's
        replications a prefix of the fixed run.  Size the seed plans it
        reads from at ``rx.seed_plan_size``.
    n_points:
        Number of independent design points.
    rx:
        The resolved execution: replication policy, engine, executor
        (``workers``/``backend``) and ``store``.  With a store, each
        round's new replications are keyed by ``task_key(fn,
        task_for(i, r))`` — always the *interpreted* task shape, so
        every engine, backend and replication policy shares one cache.
        Cached values are served without submitting work, and computed
        values are written back, so raising ``max_replications`` on a
        warmed store schedules only the delta replications.
    ensemble_fn:
        The batch form of ``fn``: each round's missing tasks are packed
        into at most ``min(points, slots, tasks // LOCKSTEP_MIN_ROWS)``
        tuples — at most one per executor slot (the backend's
        ``parallelism``), points strided across them, each point's
        tasks contiguous and in replication order — and
        ``ensemble_fn(tasks)`` runs one tuple as one lockstep ensemble.
        It must return ``[fn(t) for t in tasks]``, bit for bit.  Tasks
        packed together must share their run-wide settings (horizon,
        workload, warmup; see :func:`shared_field`).
    metrics:
        Maps one evaluation result to the float (or several floats)
        whose interval must tighten; applied in the parent.

    Returns
    -------
    list[AdaptivePointRun]
        One entry per point, in point order.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if rx.engine != "vectorized":
        ensemble_fn = None
    adaptive = rx.ci_target is not None
    floor = max(2, rx.replications) if adaptive else rx.replications
    cap = rx.max_replications if adaptive else floor
    pool = rx.executor()
    store: ResultStore | None = rx.store
    runs = [AdaptivePointRun(values=[]) for _ in range(n_points)]
    open_points = list(range(n_points))
    while open_points:
        # One slot per new replication: (hit, cached value or store key).
        slots: list[tuple[int, list[tuple[bool, Any]]]] = []
        misses: list[list[Any]] = []  # per point with any, in order
        for i in open_points:
            done = len(runs[i].values)
            point_slots: list[tuple[bool, Any]] = []
            point_misses: list[Any] = []
            for r in range(done, min(done + floor, cap)):
                task = task_for(i, r)
                key = None
                if store is not None:
                    key = task_key(fn, task)
                    hit, value = store.get(key)
                    if hit:
                        point_slots.append((True, value))
                        continue
                point_slots.append((False, key))
                point_misses.append(task)
            slots.append((i, point_slots))
            if point_misses:
                misses.append(point_misses)
        computed = iter(_run_misses(pool, fn, ensemble_fn, misses))
        for i, point_slots in slots:
            for hit, value in point_slots:
                if not hit:
                    key, value = value, next(computed)
                    if store is not None:
                        store.put(key, value)
                runs[i].values.append(value)
        if not adaptive:
            break
        still_open: list[int] = []
        for i in open_points:
            run = runs[i]
            samples = [_metric_values(metrics, v) for v in run.values]
            run.converged = all(
                replication_interval([s[m] for s in samples]).relative_half_width()
                <= rx.ci_target
                for m in range(len(samples[0]))
            )
            if not run.converged and run.replications < cap:
                still_open.append(i)
        open_points = still_open
    return runs


def _pack_count(sizes: list[int], slots: int) -> int:
    """How many ensembles a round of points with ``sizes`` misses gets.

    At most one per point and per slot, and each strided pack holds at
    least :data:`LOCKSTEP_MIN_ROWS` tasks; 0 means run ``fn`` per task.
    """
    n = min(len(sizes), slots, sum(sizes) // LOCKSTEP_MIN_ROWS)
    while n and min(sum(sizes[t::n]) for t in range(n)) < LOCKSTEP_MIN_ROWS:
        n -= 1
    return n


def _run_misses(
    pool: ParallelExecutor,
    fn: Callable[[Any], Any],
    ensemble_fn: Callable[[tuple[Any, ...]], list[Any]] | None,
    misses: list[list[Any]],
) -> list[Any]:
    """The values of ``misses``, in order.

    One ``ensemble_fn`` call per pack when the round is big enough for
    one (see :func:`_pack_count`), else one ``fn`` call per task.
    Points are packed strided — point ``j`` goes to pack ``j % n`` —
    so each pack gets a share of the cheap and the costly points
    instead of one contiguous run of either.
    """
    n = 0
    if ensemble_fn is not None:
        n = _pack_count([len(point) for point in misses], pool.slots)
    if n == 0:
        flat = [task for point in misses for task in point]
        return pool.map(fn, flat) if flat else []
    packed = [tuple(task for point in misses[t::n] for task in point) for t in range(n)]
    outs = pool.map(ensemble_fn, packed)
    for tasks, out in zip(packed, outs):
        if len(out) != len(tasks):
            raise ValueError(
                f"ensemble_fn returned {len(out)} values for "
                f"{len(tasks)} tasks"
            )
    values = [iter(out) for out in outs]
    return [
        value
        for j, point in enumerate(misses)
        for value in islice(values[j % n], len(point))
    ]


def shared_field(items: Sequence[Any], index: int | str, name: str) -> Any:
    """Field ``index`` of every ensemble item, which must agree.

    The items of one lockstep ensemble must share the run-wide
    settings (horizon, workload, warmup) and what shapes the net.
    """
    value = items[0][index]
    for item in items[1:]:
        if item[index] != value:
            raise ValueError(
                f"ensemble items differ in {name}: "
                f"{value!r} != {item[index]!r}"
            )
    return value
