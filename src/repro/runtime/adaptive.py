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

from ..core.statistics import ConfidenceInterval, replication_interval
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
#: 2.4; CPU time, best of 9, two alternating processes), rows of one
#: model against as many interpreted runs (node nets at a 60 s horizon,
#: the validation net at its Petri horizon): the closed and open node
#: nets broke even at about 2 rows and the validation net between 2 and
#: 3; one row ran at 0.6-0.8x (node) and 0.4x (validation), and at 8
#: rows lockstep ran 2.7-3.3x (open node), 2.8-3.6x (validation) and
#: 4.2-4.4x (closed node) as fast.  The floor stays above break-even:
#: at 8, serve-mixed's cold ``grid100`` request (9 tasks, 2 workers)
#: runs as one pack rather than two.
LOCKSTEP_MIN_ROWS = 8


@dataclass
class AdaptivePointRun:
    """One point's outcome under the replication controller.

    ``values`` holds the raw evaluation results in replication order —
    by the seed-plan contract, a bit-identical prefix of the fixed
    ``max_replications`` run.  ``converged`` is ``None`` for a
    fixed-count run, which has no stopping rule.  It is the one record
    of a replicated point: drivers keep it and derive counts, flags and
    intervals from it.
    """

    values: list[Any]
    converged: bool | None = None

    @property
    def replications(self) -> int:
        """Replications actually executed for this point."""
        return len(self.values)

    def interval(
        self,
        metric: Callable[[Any], float] = float,
        confidence: float = 0.95,
    ) -> ConfidenceInterval:
        """Across-replication t-interval on ``metric`` of each value."""
        return replication_interval(
            [metric(v) for v in self.values], confidence
        )


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
    fold: Callable[[int, int, list[Any]], Any] | None = None,
    fold_key: Callable[[int, int], str] | None = None,
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
      per task.

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
        new replication is one entry: one lookup before the round's
        dispatch and, on a miss, one write after it.  Its key is
        ``task_key(fn, task_for(i, r))`` — always the *interpreted*
        task shape, so every engine, backend and replication policy
        shares one cache — or ``fold_key(i, r)`` with ``fold``.
        Cached values are served without submitting work, so raising
        ``max_replications`` on a warmed store schedules only the
        delta replications.
    ensemble_fn:
        The batch form of ``fn``: each round's missing tasks are packed
        into at most ``min(units, slots, tasks // LOCKSTEP_MIN_ROWS)``
        tuples — at most one per executor slot (the backend's
        ``parallelism``), units strided across them, where a unit is a
        point's new replications in order (one task, with ``fold``) —
        and ``ensemble_fn(tasks)`` runs one tuple as one lockstep
        ensemble.  It must return ``[fn(t) for t in tasks]``, bit for
        bit.  Tasks packed together must share what shapes the net and
        what their ``ensemble_fn`` cannot vary per row (workload,
        warmup; see :func:`shared_field`); a horizon may differ per row.
    metrics:
        Maps one replication's value to the float (or several floats)
        whose interval must tighten; applied in the parent.
    fold:
        Makes one replication a group of tasks, such as a network's
        nodes.  ``task_for(i, r)`` then returns the replication's
        tasks; each is dispatched as a packing unit of its own, so the
        tasks of one replication spread over every slot, but none is
        keyed, read or written on its own.  ``fold(i, r, values)``
        turns their values, in task order, into the replication's
        value: what ``metrics`` reads, the store keeps and the run
        returns.  Given with ``fold_key`` or not at all
        (:class:`TypeError`).
    fold_key:
        ``(point_index, replication_index) -> store key`` of a grouped
        replication's folded value.  With a store, each new replication
        is looked up under it before ``task_for`` expands it: a hit is
        the replication's value, with no task run and no ``fold``
        call.  The key must change whenever anything the tasks or
        their fold are derived from does.

    Returns
    -------
    list[AdaptivePointRun]
        One entry per point, in point order.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if (fold is None) != (fold_key is None):
        raise TypeError("run_replications takes fold and fold_key together")
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
        # Per new replication: its point, its index, whether the store
        # served it, and its value (a hit) or its store key and task
        # count (a miss).
        reps: list[tuple[int, int, bool, Any, int]] = []
        units: list[list[Any]] = []  # the missing tasks, as packing units
        for i in open_points:
            done = len(runs[i].values)
            point_misses: list[Any] = []
            for r in range(done, min(done + floor, cap)):
                task = task_for(i, r) if fold is None else None
                key = None
                if store is not None:
                    key = task_key(fn, task) if fold is None else fold_key(i, r)
                    hit, value = store.get(key)
                    if hit:
                        reps.append((i, r, True, value, 0))
                        continue
                if fold is None:
                    point_misses.append(task)
                    reps.append((i, r, False, key, 1))
                else:
                    tasks = task_for(i, r)
                    units.extend([t] for t in tasks)
                    reps.append((i, r, False, key, len(tasks)))
            if point_misses:
                units.append(point_misses)
        computed = iter(_run_misses(pool, fn, ensemble_fn, units))
        for i, r, hit, value, n_tasks in reps:
            if not hit:
                key, values = value, list(islice(computed, n_tasks))
                value = values[0] if fold is None else fold(i, r, values)
                if key is not None:
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
    """How many ensembles a round of units with ``sizes`` tasks gets.

    At most one per unit and per slot, and each strided pack holds at
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
    units: list[list[Any]],
) -> list[Any]:
    """The values of the tasks of ``units``, in order.

    A unit is the tasks that stay together in one pack: a point's
    missing replications, or one task of a grouped replication.  One
    ``ensemble_fn`` call per pack when the round is big enough for one
    (see :func:`_pack_count`), else one ``fn`` call per task.  Units
    are packed strided — unit ``j`` goes to pack ``j % n`` — so each
    pack gets a share of the cheap and the costly units instead of one
    contiguous run of either.
    """
    n = 0
    if ensemble_fn is not None:
        n = _pack_count([len(unit) for unit in units], pool.slots)
    if n == 0:
        flat = [task for unit in units for task in unit]
        return pool.map(fn, flat) if flat else []
    packed = [tuple(task for unit in units[t::n] for task in unit) for t in range(n)]
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
        for j, unit in enumerate(units)
        for value in islice(values[j % n], len(unit))
    ]


def shared_field(items: Sequence[Any], index: int | str, name: str) -> Any:
    """Field ``index`` of every ensemble item, which must agree.

    The items of one lockstep ensemble must share the run-wide
    settings (workload, warmup) and what shapes the net; their
    horizons may differ.
    """
    value = items[0][index]
    for item in items[1:]:
        if item[index] != value:
            raise ValueError(
                f"ensemble items differ in {name}: "
                f"{value!r} != {item[index]!r}"
            )
    return value
