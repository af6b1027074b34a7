"""The sweep-serving core: :class:`SweepService` and its job model.

A service instance owns one long-lived
:class:`~repro.runtime.config.ResolvedExecution` — backend and result
store resolved **once** and reused across every request — and executes
ScenarioSpec-shaped requests against it.  Each request is validated
through the same :class:`~repro.scenarios.ScenarioSpec` schema as
``repro.cli scenario run``, rendered by the same
:func:`~repro.scenarios.scenario_report` function, and keyed into the
same content-addressed store — which is what makes the serving invariant
hold *by construction*:

    **A served response is byte-identical to the equivalent
    ``scenario run``**, and a warm request (every task already in the
    store) submits **zero** tasks to the backend.

Request shape (plain JSON)::

    {
      "scenario":  { ... a ScenarioSpec mapping ... },   # required
      "overrides": ["params.horizon=2.0", ...],          # optional
      "smoke":     false                                 # optional
    }

``overrides``/``smoke`` mirror the ``scenario run`` flags exactly
(``smoke`` applies the spec's own ``smoke:`` block first, explicit
overrides win).  Schema violations raise :class:`ServiceError` naming
the offending key — the HTTP layer maps them to 400.

Placement is **server policy**: the request's ``execution`` block
still controls everything that shapes the output (replications,
``ci_target``, engine — the spelling ``scenario run`` would use), but
the *live* backend and store are the service's own, so a request can
never point the server at a different store directory or worker
fleet.

Jobs run on a single worker thread, FIFO.  That serialisation is
deliberate: the result store counters are snapshotted per job, and one
job at a time keeps them exact.  The shared store's session counters
reach its ``manifest.json`` once, when :meth:`SweepService.close`
flushes them; ``/stats`` is the live view meanwhile.  A job's output
is the report text :func:`~repro.scenarios.scenario_report` returns.  Job states are
``queued → running → done | failed | cancelled``; identical in-flight
requests (same :func:`~repro.runtime.store.request_key`) coalesce onto
one job.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping
from typing import Any

from ..runtime.config import ExecutionConfig, ResolvedExecution
from ..runtime.store import request_key
from ..scenarios import ScenarioError, ScenarioSpec, scenario_report
from ..scenarios.spec import _spec_from

__all__ = [
    "JOB_STATES",
    "Job",
    "ServiceError",
    "SweepService",
    "parse_request",
]

#: Every state a job can be in, in lifecycle order (the last three are
#: terminal).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_REQUEST_KEYS = ("scenario", "overrides", "smoke")


class ServiceError(ValueError):
    """A serving request violates the request or scenario schema.

    Like :class:`~repro.scenarios.ScenarioError`, the message always
    names the offending key; the HTTP layer maps it to status 400.
    """


class JobCancelled(Exception):
    """Internal: a running job observed its cancellation flag."""


def parse_request(body: Any) -> ScenarioSpec:
    """Validate a raw request payload into a :class:`ScenarioSpec`.

    Mirrors :func:`~repro.scenarios.load_scenario` minus the file I/O:
    the ``smoke`` block is applied first when requested, explicit
    ``overrides`` win, and every rejection is a :class:`ServiceError`
    naming the bad key.
    """
    if not isinstance(body, Mapping):
        raise ServiceError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - set(_REQUEST_KEYS))
    if unknown:
        raise ServiceError(
            f"unknown request key {unknown[0]!r} "
            f"(known keys: {', '.join(_REQUEST_KEYS)})"
        )
    if "scenario" not in body:
        raise ServiceError("missing required request key 'scenario'")
    scenario = body["scenario"]
    if not isinstance(scenario, Mapping):
        raise ServiceError(
            "request key 'scenario' must be a scenario mapping, "
            f"got {scenario!r}"
        )
    smoke = body.get("smoke", False)
    if not isinstance(smoke, bool):
        raise ServiceError(
            f"request key 'smoke' must be true or false, got {smoke!r}"
        )
    overrides = body.get("overrides", [])
    if not isinstance(overrides, (list, Mapping)) or (
        isinstance(overrides, list)
        and not all(isinstance(o, str) for o in overrides)
    ):
        raise ServiceError(
            "request key 'overrides' must be a list of KEY=VALUE strings "
            f"or a mapping, got {overrides!r}"
        )
    try:
        return _spec_from(scenario, overrides, smoke)
    except ScenarioError as exc:
        raise ServiceError(str(exc)) from exc


class Job:
    """One submitted request: its spec, lifecycle state, and events.

    Not constructed directly — :meth:`SweepService.submit` returns
    these.  Thread-safe views: :meth:`snapshot` (the JSON shape every
    endpoint serves), :meth:`events_since` (incremental event feed for
    streaming/polling), :meth:`wait` (block until terminal).
    """

    def __init__(
        self, job_id: str, spec: ScenarioSpec, digest: str,
        cond: threading.Condition,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.request_digest = digest
        self.state = "queued"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.cancel_requested = False
        self.events: list[dict[str, Any]] = []
        self._cond = cond
        self.add_event("state", state="queued")

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    def add_event(self, kind: str, **payload: Any) -> None:
        """Append one event (holds the service condition; notifies)."""
        with self._cond:
            self.events.append(
                {"seq": len(self.events), "event": kind, **payload}
            )
            self._cond.notify_all()

    def events_since(self, seq: int) -> list[dict[str, Any]]:
        """Events with ``seq >= seq`` — the incremental stream read."""
        with self._cond:
            return list(self.events[seq:])

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self.done:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def snapshot(self) -> dict[str, Any]:
        """The JSON view of this job (what every endpoint returns)."""
        with self._cond:
            snap: dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "name": self.spec.name,
                "model": self.spec.model,
                "request_key": self.request_digest,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "events": len(self.events),
            }
            if self.error is not None:
                snap["error"] = self.error
            if self.result is not None:
                snap["result"] = dict(self.result)
            return snap


class _JobStore:
    """Per-job facade over the shared :class:`ResultStore`.

    Delegates reads/writes to the long-lived store while (a) counting
    this job's own hit/miss/put traffic — the numbers behind the
    "warm request submits zero tasks" assertion, independent of the
    shared store's session counters — (b) emitting throttled
    per-task progress events, and (c) acting as the cooperative
    cancellation checkpoint (every task consults the store, so every
    task boundary observes a cancel request).
    """

    def __init__(self, store: Any, job: Job, interval: float) -> None:
        self._store = store
        self._job = job
        self._interval = interval
        self._last = float("-inf")
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def enabled(self) -> bool:
        return self._store.enabled

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def _checkpoint(self) -> None:
        if self._job.cancel_requested:
            raise JobCancelled()

    def _progress(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._last >= self._interval:
            self._last = now
            self._job.add_event("progress", **self.counters())

    def get(self, key: str) -> tuple[bool, Any]:
        self._checkpoint()
        hit, value = self._store.get(key)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self._progress()
        return hit, value

    def put(self, key: str, value: Any) -> None:
        self._checkpoint()
        self._store.put(key, value)
        self.puts += 1
        self._progress()


class _Latency:
    """Min/mean/max accumulator for request/job wall times."""

    def __init__(self) -> None:
        self.count = 0
        self.total_ms = 0.0
        self.min_ms: float | None = None
        self.max_ms: float | None = None

    def add(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        self.min_ms = ms if self.min_ms is None else min(self.min_ms, ms)
        self.max_ms = ms if self.max_ms is None else max(self.max_ms, ms)

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": (
                round(self.total_ms / self.count, 3) if self.count else None
            ),
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
        }


class SweepService:
    """Serve sweep requests from one long-lived execution resolution.

    Parameters
    ----------
    execution:
        The server-side :class:`ExecutionConfig`.  Its ``store_dir``,
        ``backend``/``connect`` and ``workers`` decide *where* request
        tasks run and which cache serves them; it is resolved once
        (``keep_alive=True``, so a process pool — explicit, or the
        default for ``workers > 1`` — stays warm) and shared by every
        job.  Scalar knobs that shape output
        (replications, ``ci_target``, engine, ...) come from each
        *request's* own ``execution`` block instead — exactly what the
        equivalent ``scenario run`` would use.
    progress_interval:
        Minimum seconds between per-task progress events (0 emits one
        per store access — what the tests use).

    Use as a context manager (or call :meth:`close`) so the worker
    thread, persistent backend and store counters shut down cleanly.
    """

    def __init__(
        self,
        execution: ExecutionConfig | None = None,
        *,
        progress_interval: float = 0.2,
    ) -> None:
        self.execution = execution if execution is not None else ExecutionConfig()
        self._rx = self.execution.resolve(keep_alive=True)
        self._progress_interval = progress_interval
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._queue: deque[Job] = deque()
        self._closed = False
        self._next_id = 1
        self._requests = 0
        self._request_errors = 0
        self._by_endpoint: dict[str, int] = {}
        self._request_latency = _Latency()
        self._job_latency = _Latency()
        self._store_totals = {"hits": 0, "misses": 0, "puts": 0}
        self._worker = threading.Thread(
            target=self._drain, name="sweep-service-worker", daemon=True
        )
        self._worker.start()

    # -- request accounting (shared with the HTTP layer) ---------------

    def record_request(
        self, endpoint: str, ms: float | None = None, error: bool = False
    ) -> None:
        """Count one request against ``/stats`` (HTTP layer calls this)."""
        with self._cond:
            self._requests += 1
            if error:
                self._request_errors += 1
            self._by_endpoint[endpoint] = self._by_endpoint.get(endpoint, 0) + 1
            if ms is not None:
                self._request_latency.add(ms)

    # -- job lifecycle -------------------------------------------------

    def submit(self, body: Any) -> tuple[Job, bool]:
        """Validate and enqueue one request.

        Returns ``(job, created)``: submission is idempotent over
        in-flight work — a request whose
        :func:`~repro.runtime.store.request_key` digest matches a
        queued or running job coalesces onto it (``created=False``)
        instead of queueing duplicate computation.  Terminal jobs never
        coalesce; resubmitting a finished request runs it again (warm,
        so it is served from the store).
        """
        spec = parse_request(body)  # ServiceError on any schema violation
        digest = request_key({"scenario": spec.to_dict()})
        with self._cond:
            if self._closed:
                raise ServiceError("service is shut down")
            for existing in self._jobs.values():
                if (
                    existing.request_digest == digest
                    and not existing.done
                    and not existing.cancel_requested
                ):
                    return existing, False
            job = Job(f"job-{self._next_id}", spec, digest, self._cond)
            self._next_id += 1
            self._jobs[job.id] = job
            self._queue.append(job)
            self._cond.notify_all()
        return job, True

    def run(self, body: Any, timeout: float | None = None) -> Job:
        """Submit and block until the job is terminal (the sync path)."""
        job, _created = self.submit(body)
        if not job.wait(timeout):
            raise TimeoutError(
                f"job {job.id} still {job.state} after {timeout:g}s"
            )
        return job

    def job(self, job_id: str) -> Job | None:
        """Look one job up by id (``None`` when unknown)."""
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job this service has seen, in submission order."""
        with self._cond:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: queued jobs immediately, running cooperatively.

        A queued job goes straight to ``cancelled``; a running job has
        its flag set and aborts at the next store checkpoint (between
        tasks — a cancelled run never leaves a partial task, and
        everything it already computed stays in the store).  Terminal
        jobs are returned unchanged.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                job.cancel_requested = True
                self._finish(job, "cancelled", error="cancelled while queued")
            elif job.state == "running":
                job.cancel_requested = True
            return job

    # -- stats ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: requests, jobs, latency, hit rate."""
        with self._cond:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            lookups = self._store_totals["hits"] + self._store_totals["misses"]
            store = self._rx.store
            return {
                "requests": {
                    "total": self._requests,
                    "errors": self._request_errors,
                    "by_endpoint": dict(sorted(self._by_endpoint.items())),
                },
                "latency_ms": self._request_latency.snapshot(),
                "jobs": {
                    "total": len(self._jobs),
                    **by_state,
                    "latency_ms": self._job_latency.snapshot(),
                },
                "store": {
                    "enabled": store is not None and store.enabled,
                    **self._store_totals,
                    "hit_rate": (
                        round(self._store_totals["hits"] / lookups, 4)
                        if lookups else None
                    ),
                },
            }

    # -- worker --------------------------------------------------------

    def _finish(self, job: Job, state: str, *, error: str | None = None,
                result: dict[str, Any] | None = None) -> None:
        """Terminal transition; caller holds (or re-enters) the cond."""
        job.state = state
        job.finished = time.time()
        job.error = error
        job.result = result
        job.add_event("state", state=state)

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._queue:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                job = self._queue.popleft()
                if job.state != "queued":  # cancelled while queued
                    continue
                job.state = "running"
                job.started = time.time()
            job.add_event("state", state="running")
            self._execute(job)

    def _execute(self, job: Job) -> None:
        store = self._rx.store
        job_store = (
            _JobStore(store, job, self._progress_interval)
            if store is not None else None
        )
        ex = job.spec.execution
        rx = ResolvedExecution(
            workers=ex.workers,
            replications=ex.replications,
            engine=ex.engine,
            ci_target=ex.ci_target,
            max_replications=ex.max_replications,
            backend=self._rx.backend,
            store=job_store,
        )
        t0 = time.perf_counter()
        output, error = "", None
        try:
            if job.cancel_requested:
                raise JobCancelled()
            output = scenario_report(job.spec, rx)
        except JobCancelled:
            state, error = "cancelled", "cancelled while running"
        except ValueError as exc:
            # A spec-level misconfiguration (e.g. a geometric radius
            # too small to connect the network) — the request's fault,
            # not a crash.
            state, error = "failed", str(exc)
        except Exception as exc:  # noqa: BLE001 - jobs must never kill the worker
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        else:
            state = "done"
            if job_store is not None:
                job_store._progress(force=True)
        self._account(job, job_store, t0)
        self._finish(
            job, state, error=error,
            result={
                "exit_code": 0 if state == "done" else None,
                "output": output,
                "store": (
                    job_store.counters() if job_store is not None else None
                ),
                "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            },
        )

    def _account(
        self, job: Job, job_store: _JobStore | None, t0: float
    ) -> None:
        with self._cond:
            self._job_latency.add((time.perf_counter() - t0) * 1000.0)
            if job_store is not None:
                for name, value in job_store.counters().items():
                    self._store_totals[name] += value

    # -- shutdown ------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Stop the worker, cancel queued jobs, release the backend and
        flush the store's counters into its manifest (the one write of
        them a service makes)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for job in list(self._queue):
                if job.state == "queued":
                    job.cancel_requested = True
                    self._finish(
                        job, "cancelled", error="service shut down"
                    )
            self._queue.clear()
            running = [j for j in self._jobs.values() if j.state == "running"]
            for job in running:
                job.cancel_requested = True
            self._cond.notify_all()
        self._worker.join(timeout)
        self._rx.backend.close()
        store = self._rx.store
        if store is not None:
            store.flush_counters()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
