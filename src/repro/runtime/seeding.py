"""Spawn-safe, collision-free seed derivation for parallel runs.

Every parallel execution plan derives its per-task seeds *before* any
work is distributed, via :meth:`numpy.random.SeedSequence.spawn`.  The
spawn tree guarantees statistically independent, collision-free streams
regardless of which process evaluates which task, so results are a pure
function of ``(root seed, task index, replication index)`` — identical
for ``workers=1`` and ``workers=N``, and identical under ``fork`` and
``spawn`` start methods.

Two integer-seed helpers exist because the simulation APIs accept plain
integer seeds: a spawned :class:`~numpy.random.SeedSequence` child is
flattened to a 128-bit integer drawn from its state, which
:func:`numpy.random.default_rng` accepts directly.  Distinct children
give distinct integers with overwhelming probability (collisions need a
128-bit birthday coincidence).

:func:`node_seeds` gives each item of a node set its own seed, keyed by
the item's index alone, so how the set is split into executor chunks
never changes a number.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "node_seeds",
    "sequence_to_seed",
    "spawn_sequences",
    "spawn_seeds",
    "replication_seeds",
    "substream_sequence",
    "substream_seed",
]


def sequence_to_seed(seq: np.random.SeedSequence) -> int:
    """Flatten a seed sequence to a 128-bit integer seed."""
    words = seq.generate_state(4, np.uint32)
    return int.from_bytes(words.tobytes(), "little")


def spawn_sequences(seed: int | None, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent children of ``SeedSequence(seed)``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return np.random.SeedSequence(seed).spawn(n)


def spawn_seeds(seed: int | None, n: int) -> list[int]:
    """``n`` collision-free integer seeds spawned from ``seed``."""
    return [sequence_to_seed(s) for s in spawn_sequences(seed, n)]


def substream_sequence(
    seed: int | None, *key: int
) -> np.random.SeedSequence:
    """A *tagged* sub-stream of ``seed``, keyed by an integer tuple.

    Where :func:`spawn_sequences` numbers children ``0..n-1``,
    ``substream_sequence`` addresses a child by an explicit ``key``
    (``SeedSequence(seed, spawn_key=key)``), so independent subsystems
    can carve collision-free streams out of one run seed without
    coordinating a child count — e.g. topology layout, churn failure
    times and duty-cycle draws each own a fixed tag.  Tags should be
    large constants (``>= 2**16``) so they can never collide with the
    small indices :meth:`~numpy.random.SeedSequence.spawn` hands out
    for the same parent seed.
    """
    for k in key:
        if not 0 <= k < 2**32:
            raise ValueError(f"substream key words must be uint32, got {k}")
    return np.random.SeedSequence(seed, spawn_key=tuple(key))


def substream_seed(seed: int | None, *key: int) -> int:
    """Integer seed for the tagged sub-stream ``key`` of ``seed``."""
    return sequence_to_seed(substream_sequence(seed, *key))


def replication_seeds(base_seed: int | None, replications: int) -> list[int | None]:
    """Per-replication seeds with a legacy-compatible first entry.

    Replication 0 runs with ``base_seed`` *unchanged*, so a
    single-replication run is bit-identical to the pre-runtime
    behaviour of every experiment driver; replications 1..R-1 get
    independent seeds spawned from ``base_seed``.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if replications == 1:
        return [base_seed]
    return [base_seed, *spawn_seeds(base_seed, replications - 1)]


def node_seeds(seed: int, n_items: int) -> list[int]:
    """Per-item seeds keyed by item index: ``seed + i``.

    The seed of item ``i`` depends only on ``(seed, i)``, so any worker
    count, chunking or backend hands every item the same seed.  This
    is the network model's historical scheme, distinct within a run.

    >>> node_seeds(10, 3)
    [10, 11, 12]
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if seed is None:
        raise ValueError("node seeds need an integer seed")
    return [seed + i for i in range(n_items)]
