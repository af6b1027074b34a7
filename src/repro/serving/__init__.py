"""``repro.serving`` — the sweep-serving query service over the result store.

The layers below this package already guarantee that *what* you
compute is independent of *how* it is computed: task keys never
include execution knobs, every backend is bit-identical to the serial
reference, and the content-addressed store turns re-runs into reads.
This package turns those guarantees into a long-running service:

* :class:`SweepService` — the programmatic core.  Resolves one
  :class:`~repro.runtime.ExecutionConfig` (backend + store) at startup
  and executes ScenarioSpec-shaped requests against it through the
  same :func:`~repro.scenarios.scenario_report` function as
  ``repro.cli scenario run`` — so a served response is byte-identical
  to the equivalent CLI run, a fully-warm request touches only the
  store (zero backend tasks), and a cold request computes exactly its
  misses.  Jobs carry ``queued → running → done/failed/cancelled``
  lifecycles, per-replication progress events, idempotent submission
  (dup in-flight requests coalesce by
  :func:`~repro.runtime.store.request_key`) and cooperative
  cancellation.
* :mod:`repro.serving.server` — a stdlib-only threaded JSON/HTTP front
  end (``repro.cli serve``): sync ``/run``, pollable ``/jobs``,
  NDJSON streaming, and ``/stats`` counters.
* :mod:`repro.serving.client` — the keep-alive ``http.client``
  client behind ``repro.cli query`` (sync / poll / stream modes).

See ``docs/serving.md`` for the endpoint reference and a runnable
quickstart.
"""

from .client import QUERY_MODES, ServerError, fetch_json, fetch_stats, query_server
from .server import SweepHTTPServer, make_server, serve_http
from .service import (
    JOB_STATES,
    Job,
    ServiceError,
    SweepService,
    parse_request,
)

__all__ = [
    "JOB_STATES",
    "Job",
    "QUERY_MODES",
    "ServerError",
    "ServiceError",
    "SweepHTTPServer",
    "SweepService",
    "fetch_json",
    "fetch_stats",
    "make_server",
    "parse_request",
    "query_server",
    "serve_http",
]
