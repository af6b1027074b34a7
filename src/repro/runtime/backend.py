"""Pluggable execution backends behind the :class:`ParallelExecutor` seam.

A *backend* answers one question — "evaluate these picklable task
chunks and give me the results back in order" — and nothing else.  The
chunking policy, seed plans and adaptive control all live
above this seam, which is what makes the implementations
interchangeable:

* :class:`SerialBackend` — in-process, in-order evaluation.
  Bit-identical to the plain for-loops the drivers used before the
  runtime existed (the default backend for ``workers=1``).
* :class:`ProcessPoolBackend` — the
  :class:`concurrent.futures.ProcessPoolExecutor` fan-out across local
  cores (the default for ``workers > 1``); a one-item map runs
  in-process.
* :class:`~repro.runtime.remote.SocketBackend` — chunks dispatched to
  remote worker processes over a length-prefixed TCP protocol
  (``python -m repro.cli worker --serve PORT`` on each host).

The contract every backend must honour (asserted in
``tests/runtime/test_backends.py`` and ``tests/runtime/test_remote.py``):

* **Ordering** — ``submit_chunks(fn, chunks)`` returns one result list
  per chunk, in chunk-submission order, whatever order execution
  finishes in.
* **Purity of placement** — seeds travel as data inside the items
  (:mod:`repro.runtime.seeding`), so *where* a chunk runs can never
  change the numbers: every backend is bit-identical to
  :class:`SerialBackend`.
* **Error provenance** — a failing item re-raises in the caller as
  :class:`~repro.runtime.TaskError` carrying the item's global index,
  whichever process (or host) evaluated it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from .executor import TaskError, _run_chunk

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
]

T = TypeVar("T")
R = TypeVar("R")

#: Chunk is ``(start_index, items)`` — the unit a backend schedules.
Chunk = tuple[int, Sequence[Any]]

#: CLI-facing backend spec names (see :func:`make_backend`).
BACKEND_NAMES = ("local", "processes", "socket")


class Backend(ABC):
    """Execution strategy for ordered maps over picklable task chunks.

    Subclasses implement :meth:`submit_chunks`; :meth:`map` adds the
    shared chunking policy on top.  ``parallelism`` is the slot count
    the default chunk size is balanced against (1 for serial, the
    worker count for a pool, the host count for sockets).
    """

    #: Human-readable backend name (used in CLI output and errors).
    name: str = "backend"

    @property
    def parallelism(self) -> int:
        """Concurrent execution slots the backend can fill."""
        return 1

    @abstractmethod
    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> list[list[Any]]:
        """Evaluate ``fn`` over each chunk; one result list per chunk.

        ``chunks`` are ``(global_start_index, items)`` pairs; failures
        must surface as :class:`~repro.runtime.TaskError` with the
        failing item's global index.
        """

    def close(self) -> None:
        """Release any long-lived resources the backend holds.

        A no-op for stateless backends.  Long-lived owners (the
        serving layer resolves one backend and reuses it across
        requests) call this on shutdown; a closed backend may lazily
        re-acquire resources if used again.
        """

    def resolve_chunk_size(
        self, n_items: int, chunk_size: int | None = None
    ) -> int:
        """The chunking policy: explicit size, else ~4 chunks per slot."""
        if chunk_size is not None:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
            return chunk_size
        return max(1, math.ceil(n_items / (4 * self.parallelism)))

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunk_size: int | None = None,
    ) -> list[R]:
        """Ordered map over ``items`` via :meth:`submit_chunks`."""
        items = list(items)
        if not items:
            return []
        size = self.resolve_chunk_size(len(items), chunk_size)
        chunks = [
            (start, items[start : start + size])
            for start in range(0, len(items), size)
        ]
        out: list[R] = []
        for chunk_results in self.submit_chunks(fn, chunks):
            out.extend(chunk_results)
        return out


class SerialBackend(Backend):
    """In-process, in-order evaluation — the bit-identity reference.

    ``map`` is the exact historical ``workers=1`` loop (no chunking, no
    pickling); ``submit_chunks`` evaluates chunks in submission order
    in the calling process.

    >>> SerialBackend().map(abs, [-2, -1, 3])
    [2, 1, 3]
    """

    name = "local"

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> list[list[Any]]:
        return [_run_chunk(fn, start, items) for start, items in chunks]

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunk_size: int | None = None,
    ) -> list[R]:
        # The historical serial loop: no chunk bookkeeping, and the
        # original exception stays attached as __cause__ (a worker
        # process can only ship it as text; in-process we keep it).
        out: list[R] = []
        for i, item in enumerate(items):
            try:
                out.append(fn(item))
            except TaskError:
                raise
            except Exception as exc:  # noqa: BLE001 - uniform contract
                raise TaskError(i, item, str(exc)) from exc
        return out


class ProcessPoolBackend(Backend):
    """Chunk fan-out over a local :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``fn`` and every item must be picklable; ``mp_context`` selects the
    multiprocessing start method (``"fork"``, ``"spawn"``,
    ``"forkserver"``, or ``None`` for the platform default).  Results
    never depend on the choice.

    With ``keep_alive=True`` the pool is created lazily on first use
    and **reused across** ``submit_chunks`` calls instead of being
    rebuilt per call — the shape a long-lived owner like the serving
    layer wants, where per-request pool spin-up would dominate small
    requests.  Call :meth:`close` to shut the persistent pool down
    (the next use re-creates it).  Reuse changes wall time only, never
    results.

    >>> ProcessPoolBackend(workers=2).map(abs, [-2, -1, 3])
    [2, 1, 3]
    """

    name = "processes"

    def __init__(
        self,
        workers: int,
        mp_context: str | None = None,
        keep_alive: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.mp_context = mp_context
        self.keep_alive = bool(keep_alive)
        self._pool: Any = None

    @property
    def parallelism(self) -> int:
        return self.workers

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunk_size: int | None = None,
    ) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            # One task gains nothing from a pool: run it in-process.
            return SerialBackend().map(fn, items)
        return super().map(fn, items, chunk_size)

    def _mp_ctx(self):
        import multiprocessing

        return (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )

    def _gather(self, pool: Any, fn: Callable[[Any], Any],
                chunks: Sequence[Chunk]) -> list[list[Any]]:
        futures = [
            pool.submit(_run_chunk, fn, start, chunk)
            for start, chunk in chunks
        ]
        results: list[list[Any]] = []
        try:
            for future in futures:
                results.append(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> list[list[Any]]:
        from concurrent.futures import ProcessPoolExecutor

        if not chunks:
            return []
        if self.keep_alive:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._mp_ctx()
                )
            return self._gather(self._pool, fn, chunks)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            mp_context=self._mp_ctx(),
        ) as pool:
            return self._gather(pool, fn, chunks)

    def close(self) -> None:
        """Shut down the persistent pool (no-op without ``keep_alive``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(
    spec: str | None,
    *,
    workers: int = 1,
    mp_context: str | None = None,
    addresses: Sequence[str] | None = None,
    keep_alive: bool = False,
) -> Backend:
    """Build a backend from a CLI-style spec.

    ``"local"`` ignores ``workers`` (always serial); ``"processes"``
    pools ``workers`` local processes; ``"socket"`` dispatches to the
    remote workers listed in ``addresses`` (``"host:port"`` strings —
    one ``python -m repro.cli worker --serve PORT`` process each).
    ``None`` is the default: ``"processes"`` when ``workers > 1``, else
    ``"local"``.  ``keep_alive`` asks for a backend meant to outlive one
    run (currently: a persistent process pool); backends without
    long-lived state ignore it.
    """
    if spec is None:
        spec = "processes" if workers > 1 else "local"
    if spec == "local":
        return SerialBackend()
    if spec == "processes":
        return ProcessPoolBackend(
            workers=workers, mp_context=mp_context, keep_alive=keep_alive
        )
    if spec == "socket":
        from .remote import SocketBackend

        if not addresses:
            raise ValueError(
                "socket backend needs at least one worker address "
                "(host:port); start workers with "
                "'python -m repro.cli worker --serve PORT'"
            )
        return SocketBackend(addresses)
    raise ValueError(f"backend must be one of {BACKEND_NAMES}, got {spec!r}")
