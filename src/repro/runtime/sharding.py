"""Shard a large task set across coarse-grained worker-group tasks.

The :class:`~repro.runtime.ParallelExecutor` fans out *per-item* tasks;
for hundreds-of-node network scenarios that is the wrong granularity —
per-node IPC dominates and result gathering scales with node count.
This module adds the coarse level: partition the item set into
**shards**, run each shard as one executor task (its items evaluated
serially inside the worker), and scatter the per-shard result lists
back into global item order.

Design contract (mirrors the executor's "chunking never affects
results"):

* **Plans are pure data.**  :func:`partition_indices` computes a
  :class:`ShardPlan` — disjoint, non-empty index groups covering
  ``range(n_items)`` — before any work is distributed.
* **Sharding never affects results.**  Seeds are keyed by *global item
  index* (:func:`shard_node_seeds`), not by shard, so every shard
  count and every strategy evaluates item ``i`` with the same seed:
  ``shards=1`` and ``shards=8`` are bit-identical.
* **Collision-free per-shard seed streams.**  In ``"spawn"`` mode the
  per-item seeds are :meth:`numpy.random.SeedSequence.spawn` children
  of the root seed, grouped per shard — distinct children across all
  shards, with the spawn-tree independence guarantee.  The default
  ``"legacy"`` mode keeps the network model's historical ``seed + i``
  scheme (distinct within a run) so existing results stay bit-identical.

Example
-------
>>> from repro.runtime.sharding import partition_indices, run_sharded
>>> plan = partition_indices(5, shards=2, strategy="round-robin")
>>> [s.node_indices for s in plan.shards]
[(0, 2, 4), (1, 3)]
>>> def square(x):
...     return x * x
>>> run_sharded(square, [1, 2, 3, 4, 5], plan)
[1, 4, 9, 16, 25]
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

from .executor import TaskError
from .seeding import spawn_seeds
from .store import task_key

__all__ = [
    "Shard",
    "ShardPlan",
    "SHARD_STRATEGIES",
    "partition_indices",
    "shard_node_seeds",
    "map_shards",
    "run_sharded",
]

T = TypeVar("T")
R = TypeVar("R")

#: Supported partition strategies.
SHARD_STRATEGIES = ("contiguous", "round-robin")

#: Supported per-item seed derivation modes.
SEED_MODES = ("legacy", "spawn")


@dataclass(frozen=True)
class Shard:
    """One worker-group's slice of the item set."""

    shard_id: int
    node_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.node_indices)


@dataclass(frozen=True)
class ShardPlan:
    """A complete partition of ``range(n_items)`` into shards.

    Invariants (established by :func:`partition_indices`, relied on by
    :func:`map_shards`): shards are non-empty, pairwise disjoint, and
    their union is exactly ``range(n_items)``.
    """

    n_items: int
    strategy: str
    shards: tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def global_order(self, per_shard: Sequence[Sequence[R]]) -> list[R]:
        """Scatter per-shard result lists back into global item order."""
        if len(per_shard) != self.n_shards:
            raise ValueError(
                f"expected {self.n_shards} shard result lists, "
                f"got {len(per_shard)}"
            )
        out: list[Any] = [None] * self.n_items
        for shard, results in zip(self.shards, per_shard):
            if len(results) != len(shard):
                raise ValueError(
                    f"shard {shard.shard_id} returned {len(results)} "
                    f"results for {len(shard)} items"
                )
            for index, result in zip(shard.node_indices, results):
                out[index] = result
        return out


def partition_indices(
    n_items: int, shards: int, strategy: str = "contiguous"
) -> ShardPlan:
    """Partition ``range(n_items)`` into at most ``shards`` groups.

    ``shards`` is clamped to ``n_items`` so every shard is non-empty
    (asking for 8 shards of a 5-node topology gives 5 singletons).

    Strategies
    ----------
    ``"contiguous"``
        Balanced blocks of consecutive indices; the first
        ``n_items % shards`` shards take one extra item.  Best when
        neighbouring items have similar cost (e.g. a line topology's
        rate gradient stays grouped).
    ``"round-robin"``
        Shard ``j`` takes indices ``j, j+shards, j+2*shards, ...``.
        Best when cost decreases (or varies) along the index order —
        the expensive low-index items spread across all shards.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {SHARD_STRATEGIES}, got {strategy!r}"
        )
    n_shards = min(shards, n_items)
    groups: list[list[int]]
    if strategy == "round-robin":
        groups = [list(range(j, n_items, n_shards)) for j in range(n_shards)]
    else:
        base, extra = divmod(n_items, n_shards)
        groups = []
        start = 0
        for j in range(n_shards):
            size = base + (1 if j < extra else 0)
            groups.append(list(range(start, start + size)))
            start += size
    return ShardPlan(
        n_items=n_items,
        strategy=strategy,
        shards=tuple(
            Shard(shard_id=j, node_indices=tuple(g))
            for j, g in enumerate(groups)
        ),
    )


def shard_node_seeds(
    seed: int | None, n_items: int, mode: str = "legacy"
) -> list[int]:
    """Per-item seeds keyed by *global* item index.

    Because the seed of item ``i`` depends only on ``(seed, i)``, any
    shard count and any strategy hands every item the same seed —
    sharding can never change the numbers.

    Modes
    -----
    ``"legacy"``
        ``seed + i`` — the network model's historical scheme, distinct
        within a run, kept so ``shards=1`` stays bit-identical to the
        pre-sharding serial path.  Requires an integer ``seed``.
    ``"spawn"``
        :meth:`numpy.random.SeedSequence.spawn` children of ``seed``,
        flattened to 128-bit integers — collision-free across shards
        *and* across different root seeds (two ``"legacy"`` runs with
        roots 0 and 50 share seeds 50..n-1; two ``"spawn"`` runs never
        overlap).  Accepts ``seed=None`` for fresh OS entropy.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if mode not in SEED_MODES:
        raise ValueError(f"mode must be one of {SEED_MODES}, got {mode!r}")
    if mode == "spawn":
        return spawn_seeds(seed, n_items)
    if seed is None:
        raise ValueError("legacy seed mode requires an integer seed")
    return [seed + i for i in range(n_items)]


def _run_shard(
    task: tuple[Callable[[Any], Any], tuple[int, ...], list[Any]],
) -> list[Any]:
    """Worker-side shard loop; failures carry the global item index."""
    fn, indices, items = task
    out: list[Any] = []
    for index, item in zip(indices, items):
        try:
            out.append(fn(item))
        except TaskError:
            raise
        except Exception as exc:  # noqa: BLE001 - rewrap with provenance
            raise TaskError(
                index, item, f"{exc}\n{traceback.format_exc()}"
            ) from None
    return out


def map_shards(
    fn: Callable[[T], R],
    items: Sequence[T],
    plan: ShardPlan,
    *,
    exec_cfg: Any | None = None,
) -> list[list[R]]:
    """Evaluate ``fn`` over ``items``, one executor task per shard.

    Returns one result list per shard, aligned with
    ``plan.shards[j].node_indices`` — the shape
    :meth:`repro.models.network.NetworkResult.merge` consumes.  Use
    :func:`run_sharded` when only the global order matters.

    ``exec_cfg`` — an :class:`~repro.runtime.config.ExecutionConfig`
    (or resolved :class:`~repro.runtime.config.ResolvedExecution`) —
    supplies the placement (``workers`` / ``backend``) and ``store``;
    default serial and store-less.  ``fn`` must be module-level
    (picklable) when ``workers > 1``; a failing item re-raises as
    :class:`~repro.runtime.TaskError` with its global index attached,
    exactly like a flat executor map.  Shard tasks are pure picklable
    data with their seeds inside, so a
    :class:`~repro.runtime.remote.SocketBackend` dispatches them to
    remote hosts unchanged, and bit-identically.

    With a ``store``, each *item* (not shard) is keyed by
    ``task_key(fn, item)`` in the parent; cached items are served
    without touching a worker, each shard is reduced to its missing
    items (fully-cached shards submit nothing), and computed values are
    written back.  Shard membership never enters the key, so any shard
    count and strategy warms and reads the same entries.
    """
    from .config import as_resolved

    rx = as_resolved(exec_cfg)
    store = rx.store
    items = list(items)
    if plan.n_items != len(items):
        raise ValueError(
            f"plan covers {plan.n_items} items, got {len(items)}"
        )
    pool = rx.executor(chunk_size=1)
    if store is None:
        tasks = [
            (fn, shard.node_indices, [items[i] for i in shard.node_indices])
            for shard in plan.shards
        ]
        return pool.map(_run_shard, tasks)
    keys = [task_key(fn, item) for item in items]
    values: dict[int, Any] = {}
    for i, key in enumerate(keys):
        hit, value = store.get(key)
        if hit:
            values[i] = value
    reduced = [
        (shard, [i for i in shard.node_indices if i not in values])
        for shard in plan.shards
    ]
    reduced = [(shard, missing) for shard, missing in reduced if missing]
    computed = pool.map(
        _run_shard,
        [
            (fn, tuple(missing), [items[i] for i in missing])
            for _, missing in reduced
        ],
    )
    for (_, missing), shard_values in zip(reduced, computed):
        for i, value in zip(missing, shard_values):
            store.put(keys[i], value)
            values[i] = value
    return [[values[i] for i in shard.node_indices] for shard in plan.shards]


def run_sharded(
    fn: Callable[[T], R],
    items: Sequence[T],
    plan: ShardPlan,
    *,
    exec_cfg: Any | None = None,
) -> list[R]:
    """Sharded map returning results in global item order.

    Equivalent to ``[fn(x) for x in items]`` for any plan and any
    ``exec_cfg`` placement — sharding is an execution detail, never a
    semantic one.
    """
    return plan.global_order(map_shards(fn, items, plan, exec_cfg=exec_cfg))
