"""``repro.runtime`` — the parallel replication/sweep execution runtime.

The paper's headline artifacts (Figs. 4–9 threshold sweeps, the
23-point Figs. 14/15 grids, the Section V validation) are
embarrassingly parallel: every grid point and every replication is an
independent simulation.  This package turns that structure into wall
time:

* :class:`ParallelExecutor` — chunked, ordered map with a serial
  ``workers=1`` fallback that is bit-identical to the old in-process
  loops, delegating placement to a pluggable execution
  :class:`Backend`;
* :mod:`repro.runtime.backend` — the backend seam:
  :class:`SerialBackend` (in-process reference),
  :class:`ProcessPoolBackend` (local cores, the default for
  ``workers > 1``) and :func:`make_backend` for CLI-style selection;
* :mod:`repro.runtime.remote` — multi-host execution:
  ``SocketBackend`` dispatches task chunks to remote
  ``repro.cli worker --serve PORT`` processes over a length-prefixed
  TCP pickle protocol, load-balancing across hosts and re-queuing the
  chunks of dropped workers;
* :mod:`repro.runtime.seeding` — spawn-safe, collision-free seed plans
  via :meth:`numpy.random.SeedSequence.spawn`, and :func:`node_seeds`,
  which keys a node set's seeds by node index;
* :mod:`repro.runtime.config` — the one way to pass execution
  settings: :class:`ExecutionConfig` bundles workers / backend spec /
  engine / store dir / replication policy into one
  frozen, serialisable value whose :meth:`~ExecutionConfig.resolve`
  builds the live backend/store; every driver takes it (or the
  resolved view) as ``exec_cfg=`` and nothing else;
* :mod:`repro.runtime.adaptive` — the one dispatch from a driver to a
  backend: :func:`run_replications` takes a per-replication task, an
  optional ensemble task for the vectorized engine, a point count and
  the resolved config, and reads the replication policy and engine
  from it.  A fixed count is one round of ``replications`` per point;
  under ``ci_target`` it evaluates every open point in rounds and
  stops each one independently once its interval's relative half-width
  crosses the target, consuming a prefix of the fixed-count seed plan
  so converged runs stay bit-reproducible;
* :mod:`repro.runtime.store` — content-addressed result memoization:
  :class:`ResultStore` keeps per-replication results on disk under a
  canonical SHA-256 :func:`task_key` of the task spec (parameters,
  seed entry, horizon — never execution knobs), written atomically and
  checksummed on read, so re-runs, figure regeneration and adaptive
  top-ups recompute only what the cache has never seen.

Every experiment driver (``repro.experiments.figures``,
``node_energy``, ``sensitivity``, ``validation``, ``network``) and the
network model route their grids through :func:`run_replications`; the
CLI builds the one ``exec_cfg`` from ``--workers`` /
``--replications`` / ``--engine`` / ``--store`` and friends.
"""

from .adaptive import AdaptivePointRun, run_replications
from .config import (
    ENGINE_NAMES,
    ExecutionConfig,
    ResolvedExecution,
    as_resolved,
)
from .backend import (
    BACKEND_NAMES,
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .executor import ParallelExecutor, TaskError
from .seeding import (
    node_seeds,
    replication_seeds,
    sequence_to_seed,
    spawn_seeds,
    spawn_sequences,
    substream_seed,
    substream_sequence,
)
from .store import (
    ResultStore,
    StoreStats,
    StoreWarning,
    canonical_json,
    canonicalize,
    request_key,
    task_key,
)

__all__ = [
    "ExecutionConfig",
    "ResolvedExecution",
    "as_resolved",
    "ENGINE_NAMES",
    "ParallelExecutor",
    "TaskError",
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "AdaptivePointRun",
    "run_replications",
    "node_seeds",
    "replication_seeds",
    "sequence_to_seed",
    "spawn_seeds",
    "spawn_sequences",
    "substream_seed",
    "substream_sequence",
    "ResultStore",
    "StoreStats",
    "StoreWarning",
    "task_key",
    "request_key",
    "canonicalize",
    "canonical_json",
]
