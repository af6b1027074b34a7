"""Chunked, ordered execution of embarrassingly parallel task lists.

:class:`ParallelExecutor` is the single execution primitive the
experiment drivers share.  Its contract:

* **Ordered gathering** — ``map(fn, items)`` returns results in item
  order, whatever order the chunks finish in.
* **Serial fallback** — ``workers=1`` evaluates in-process, in order,
  with no pool, no pickling and no chunking, so it is bit-identical to
  the plain for-loops the drivers used before the runtime existed.
* **Chunked batching** — items are submitted in contiguous chunks to
  amortise per-task IPC; chunking never affects results, only wall
  time.
* **Spawn safety** — ``fn`` must be a module-level callable and every
  item picklable.  Seeds are data inside the items (see
  :mod:`repro.runtime.seeding`), never derived in the worker, so any
  start method ('fork', 'spawn', 'forkserver') gives the same results.

*Where* the chunks run is delegated to a pluggable
:class:`~repro.runtime.backend.Backend`: in-process
(:class:`~repro.runtime.backend.SerialBackend`), a local process pool
(:class:`~repro.runtime.backend.ProcessPoolBackend`, the default for
``workers > 1``), or remote hosts over TCP
(:class:`~repro.runtime.remote.SocketBackend`).  Backends never change
results — only wall time.

Failures are re-raised in the parent as :class:`TaskError` carrying the
offending item, mirroring the "which grid point broke" diagnostics of
the old serial sweeps.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

if TYPE_CHECKING:  # imported lazily at runtime (backend imports us)
    from .backend import Backend

__all__ = ["ParallelExecutor", "TaskError"]

T = TypeVar("T")
R = TypeVar("R")


class TaskError(RuntimeError):
    """One task of a parallel map failed.

    Attributes
    ----------
    index:
        Position of the failing item in the submitted sequence.
    item:
        The item itself (e.g. the sweep threshold).
    """

    def __init__(self, index: int, item: Any, message: str) -> None:
        super().__init__(
            f"parallel task {index} failed for item {item!r}: {message}"
        )
        self.index = index
        self.item = item
        self.message = message

    def __reduce__(self):
        # Exception.__reduce__ would replay args=(formatted,) into
        # __init__(index, item, message); rebuild from the real fields
        # so the error pickles cleanly across process boundaries.
        return (TaskError, (self.index, self.item, self.message))


def _run_chunk(
    fn: Callable[[Any], Any], start: int, items: Sequence[Any]
) -> list[Any]:
    """Worker-side chunk loop; failures carry the global item index."""
    out: list[Any] = []
    for offset, item in enumerate(items):
        try:
            out.append(fn(item))
        except TaskError:
            raise
        except Exception as exc:  # noqa: BLE001 - rewrap with provenance
            raise TaskError(
                start + offset, item, f"{exc}\n{traceback.format_exc()}"
            ) from None
    return out


class ParallelExecutor:
    """Ordered, chunked map over a pluggable execution backend.

    Parameters
    ----------
    workers:
        Number of local worker processes for the default backend.
        Ignored when an explicit ``backend`` is given (the backend
        carries its own parallelism).
    chunk_size:
        Items per submitted batch.  Defaults to
        ``ceil(len(items) / (4 * slots))`` — small enough to balance
        uneven task costs, large enough to amortise submission
        overhead (see :meth:`~repro.runtime.backend.Backend.resolve_chunk_size`).
    mp_context:
        Start-method name (``"fork"``, ``"spawn"``, ``"forkserver"``)
        or ``None`` for the platform default, for the default backend.
        Results never depend on the choice.
    backend:
        Explicit :class:`~repro.runtime.backend.Backend` instance to
        submit chunks through — e.g. a
        :class:`~repro.runtime.remote.SocketBackend` over remote
        worker processes.  ``None`` (default) builds the same default
        as :meth:`~repro.runtime.config.ExecutionConfig.resolve`: a
        serial backend for ``workers=1``, a local process pool
        otherwise.  Backends never change results.

    Example
    -------
    ``fn`` must be module-level (picklable) for ``workers > 1``; with
    the serial default any callable works:

    >>> from repro.runtime import ParallelExecutor
    >>> ParallelExecutor().map(abs, [-2, -1, 3])
    [2, 1, 3]
    >>> ParallelExecutor(workers=2, chunk_size=2).map(abs, [-2, -1, 3])
    [2, 1, 3]
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int | None = None,
        mp_context: str | None = None,
        backend: "Backend | None" = None,
    ) -> None:
        from .backend import make_backend

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = int(workers)
        self.chunk_size = chunk_size
        if backend is None:
            backend = make_backend(None, workers=self.workers, mp_context=mp_context)
        self.backend = backend

    @property
    def slots(self) -> int:
        """Concurrent execution slots: the backend's ``parallelism``."""
        return self.backend.parallelism

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Evaluate ``fn`` over ``items``, returning results in order."""
        return self.backend.map(fn, items, chunk_size=self.chunk_size)
