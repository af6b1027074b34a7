"""Per-layer spans for a traced benchmark run, recorded from outside ``src/``.

A :class:`Tracer` replaces each layer's public entry points with a
wrapper that records a span (start, end, parent span, layer metric)
*at the name the caller looks up*: every ``repro.*`` module global
that refers to a wrapped function is rebound, and wrapped methods are
rebound on their class.  Spans are kept in memory and turned into
per-layer metrics when the run ends; :meth:`Tracer.uninstall` puts
every original object back.

Self time of a span is its duration minus the part of it that its
child spans cover, so nested layers (a kernel run inside a backend
dispatch inside a store-aware map) are each charged only for their own
work.  A span opened on another thread can name its parent explicitly:
the serving layer's job spans hang under the HTTP request that
submitted the job, so the request's wait for its job is not counted
twice.

Spans are tagged with the tracer's current *phase*: ``"setup"`` (once
per process: imports, scenario load, execution resolve), ``"timed"``
(the measured units) or ``"untimed"`` (store fill and reference runs;
dropped).  :meth:`Tracer.layer_metrics` reports one setup plus one
timed unit: setup totals plus timed totals divided by the number of
units.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = ["LAYER_METRICS", "Tracer", "self_times"]

#: Every per-layer metric a traced run reports, with its unit.  The
#: ``BENCHMARK.json`` ``per_layer`` list mirrors this table.
LAYER_METRICS: dict[str, str] = {
    "scenarios.load_s": "s",
    "runtime.config.resolve_s": "s",
    "topology.build_s": "s",
    "topology.churn_schedule_s": "s",
    "topology.segments": "count",
    "models.net_build_s": "s",
    "models.net_builds": "count",
    "models.task_s": "s",
    "models.network_s": "s",
    "core.simulator.init_s": "s",
    "core.simulator.run_s": "s",
    "core.simulator.firings": "count",
    "core.simulator.stale_pops": "count",
    "core.simulator.firings_per_s": "1/s",
    "core.fast.compile_s": "s",
    "core.fast.compiles": "count",
    "core.fast.ensemble_s": "s",
    "core.fast.firings": "count",
    "core.fast.firings_per_s": "1/s",
    "energy.accounting_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.tasks": "count",
    "runtime.chunks": "count",
    "runtime.task_bytes": "bytes",
    "runtime.result_bytes": "bytes",
    "runtime.store.key_s": "s",
    "runtime.store.keys": "count",
    "runtime.store.get_s": "s",
    "runtime.store.gets": "count",
    "runtime.store.hit_ratio": "ratio",
    "runtime.store.bytes_read": "bytes",
    "runtime.store.put_s": "s",
    "runtime.store.puts": "count",
    "runtime.store.bytes_written": "bytes",
    "runtime.sharding.merge_s": "s",
    "serving.http_s": "s",
    "serving.queue_ms": "ms",
    "serving.exec_ms": "ms",
    "serving.overhead_ms": "ms",
    "cli.render_s": "s",
    "scenarios.run_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
}

#: The pseudo-layer of the harness's own root span (never a layer).
BENCH = "bench"

#: Spans that are not a layer: the harness's root and the scenario
#: runner, whose self time is the experiment code between the layer
#: boundaries.  Both count as uncovered in ``trace.coverage``.
UNCOVERED = (BENCH, "scenarios.run_s")


class _Span:
    __slots__ = ("id", "parent", "metric", "phase", "start", "end")

    def __init__(self, sid: int, parent: int | None, metric: str, phase: str):
        self.id = sid
        self.parent = parent
        self.metric = metric
        self.phase = phase
        self.start = time.perf_counter()
        self.end: float | None = None


def self_times(spans: list[_Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int | None, list[_Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """In-memory span recorder plus the layer-boundary wrappers."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[_Span] = []
        self.counts: dict[str, Counter] = {
            p: Counter() for p in ("setup", "timed", "untimed")
        }
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job_parents: dict[str, int | None] = {}
        self._restore: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, metric: str, parent: Any = ...) -> _Span:
        span = _Span(
            next(self._ids),
            self.current() if parent is ... else parent,
            metric,
            self.phase,
        )
        self.spans.append(span)
        self._stack().append(span.id)
        return span

    def close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[self.phase][name] += n

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, fn, metric, after=None, parent_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = parent_of(args) if parent_of is not None else ...
            span = tracer.open(metric, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_function(self, fn, metric, after=None) -> None:
        """Rebind every ``repro.*`` module global that *is* ``fn``."""
        wrapper = self._wrapper(fn, metric, after)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn)
                    )

    def wrap_method(self, cls, name, metric, after=None, parent_of=None) -> None:
        """Rebind ``cls.name`` (plain method or classmethod)."""
        own = name in cls.__dict__
        raw = cls.__dict__[name] if own else getattr(cls, name)
        if isinstance(raw, classmethod):
            new = classmethod(
                self._wrapper(raw.__func__, metric, after, parent_of)
            )
        else:
            new = self._wrapper(raw, metric, after, parent_of)
        setattr(cls, name, new)
        if own:
            self._restore.append(functools.partial(setattr, cls, name, raw))
        else:
            self._restore.append(functools.partial(delattr, cls, name))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark times."""
        import repro.cli  # noqa: F401 - loads every module the CLI reaches
        import repro.core.fast as fast
        import repro.energy.report as report
        import repro.experiments.network as network
        import repro.experiments.tables as tables
        import repro.runtime.remote as remote
        import repro.scenarios.runner as runner
        import repro.scenarios.spec as spec
        import repro.serving.server as server
        import repro.serving.service as service
        import repro.topology.generators as generators
        from repro.core.simulator import Simulation
        from repro.energy.accounting import EnergyAccount, NodeEnergyAccount
        from repro.energy.breakdown import EnergyBreakdown
        from repro.models import network as network_model
        from repro.models import wsn_node
        from repro.runtime.backend import ProcessPoolBackend, SerialBackend
        from repro.runtime.config import ExecutionConfig
        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.store import ResultStore, request_key, task_key
        from repro.topology.dynamics import ChurnModel

        for fn in (spec.load_scenario, spec.apply_overrides, service.parse_request):
            self.wrap_function(fn, "scenarios.load_s")
        self.wrap_function(runner.run_scenario, "scenarios.run_s")
        self.wrap_method(ExecutionConfig, "resolve", "runtime.config.resolve_s")

        # Generated layouts and routing trees are built lazily, on the
        # first rate or parent query, so those queries are timed too.
        self.wrap_function(network.make_topology, "topology.build_s")
        for cls in (
            network_model.LineTopology,
            network_model.StarTopology,
            network_model.GridTopology,
            generators.RandomGeometricTopology,
            generators.ClusterTreeTopology,
        ):
            for name in ("effective_rates", "tree_parents", "rewire", "describe"):
                if name in cls.__dict__:
                    self.wrap_method(cls, name, "topology.build_s")

        def after_schedule(schedule, args, kwargs):
            self.count(
                "topology.segments",
                sum(
                    rate is not None
                    for epoch in schedule.epochs
                    if epoch.duration_s > 0
                    for rate in epoch.rates
                ),
            )

        self.wrap_method(
            ChurnModel, "schedule", "topology.churn_schedule_s", after_schedule
        )

        self.wrap_function(
            wsn_node.build_wsn_node_net,
            "models.net_build_s",
            lambda r, a, k: self.count("models.net_builds"),
        )
        # The worker-side task functions: node-model set-up, workload
        # generators and result accounting around the kernel.
        for fn in (
            wsn_node.simulate_node_task,
            wsn_node.simulate_node_ensemble_task,
            network_model.simulate_node_segments_task,
        ):
            self.wrap_function(fn, "models.task_s")
        self.wrap_method(
            network_model.SensorNetworkModel, "simulate", "models.network_s"
        )

        self.wrap_method(Simulation, "__init__", "core.simulator.init_s")

        def after_run(result, args, kwargs):
            self.count("core.simulator.firings", result.firings)
            self.count("core.simulator.stale_pops", args[0].stale_pops)

        self.wrap_method(Simulation, "run", "core.simulator.run_s", after_run)

        self.wrap_function(
            fast.compile_net,
            "core.fast.compile_s",
            lambda r, a, k: self.count("core.fast.compiles"),
        )
        self.wrap_function(
            fast.run_ensemble,
            "core.fast.ensemble_s",
            lambda r, a, k: self.count(
                "core.fast.firings", sum(x.firings for x in r)
            ),
        )

        self.wrap_method(
            EnergyBreakdown, "from_component_states", "energy.accounting_s"
        )
        for cls, name in (
            (NodeEnergyAccount, "add_component"),
            (NodeEnergyAccount, "breakdown_j"),
            (EnergyAccount, "credit"),
        ):
            self.wrap_method(cls, name, "energy.accounting_s")

        def after_map(results, args, kwargs):
            executor, items = args[0], list(args[2] if len(args) > 2 else kwargs["items"])
            if not items:
                return
            size = executor.chunk_size or -(-len(items) // (4 * executor.workers))
            self.count("runtime.tasks", len(items))
            self.count("runtime.chunks", -(-len(items) // size))
            self.count("runtime.task_bytes", len(pickle.dumps(items)))
            self.count("runtime.result_bytes", len(pickle.dumps(results)))

        self.wrap_method(ParallelExecutor, "map", "runtime.dispatch_s", after_map)
        for cls in (SerialBackend, ProcessPoolBackend, remote.SocketBackend):
            self.wrap_method(cls, "submit_chunks", "runtime.dispatch_s")

        for fn in (task_key, request_key):
            self.wrap_function(
                fn,
                "runtime.store.key_s",
                lambda r, a, k: self.count("runtime.store.keys"),
            )

        def after_get(result, args, kwargs):
            store, key = args[0], args[1]
            self.count("runtime.store.gets")
            if result[0]:
                self.count("runtime.store.hits")
                self.count(
                    "runtime.store.bytes_read",
                    (store.objects_dir / key[:2] / key).stat().st_size,
                )

        def after_put(result, args, kwargs):
            store, key = args[0], args[1]
            self.count("runtime.store.puts")
            path = store.objects_dir / key[:2] / key
            if path.exists():
                self.count("runtime.store.bytes_written", path.stat().st_size)

        self.wrap_method(ResultStore, "get", "runtime.store.get_s", after_get)
        self.wrap_method(ResultStore, "put", "runtime.store.put_s", after_put)

        self.wrap_method(
            network_model.NetworkResult, "merge", "runtime.sharding.merge_s"
        )

        # Serving: the HTTP request is the root of its server-side work;
        # the job it submits runs on the service's worker thread, so its
        # span names the submitting request as parent explicitly.
        self.wrap_method(server.SweepHTTPServer, "finish_request", "serving.http_s")

        def after_submit(result, args, kwargs):
            job, created = result
            if created:
                self._job_parents[job.id] = self.current()

        self.wrap_method(service.SweepService, "submit", "serving.http_s", after_submit)
        self.wrap_method(
            service.SweepService,
            "_execute",
            "serving.http_s",
            parent_of=lambda args: self._job_parents.pop(args[1].id, None),
        )

        for module in (report, network, tables):
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("format_")
                    and callable(fn)
                    and getattr(fn, "__module__", None) == module.__name__
                ):
                    self.wrap_function(fn, "cli.render_s")
        return self

    def uninstall(self) -> None:
        """Put back every original function and method."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def layer_metrics(self, units: int, timed_wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one setup plus one timed unit.

        ``trace.coverage`` is the share of the timed wall time
        (``timed_wall_s``, summed over units) that layer self times
        account for; spans in :data:`UNCOVERED` are not layers.
        """
        spans = [s for s in self.spans if s.end is not None]
        own = self_times(spans)
        per_phase: dict[str, Counter] = {"setup": Counter(), "timed": Counter()}
        for s in spans:
            if s.phase in per_phase and s.metric != BENCH:
                per_phase[s.phase][s.metric] += own[s.id]
        covered = sum(
            value
            for name, value in per_phase["timed"].items()
            if name not in UNCOVERED
        )
        totals: Counter = Counter()
        for phase, scale in (("setup", 1.0), ("timed", 1.0 / max(units, 1))):
            for name, value in per_phase[phase].items():
                totals[name] += value * scale
            for name, value in self.counts[phase].items():
                totals[name] += value * scale
        metrics = {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
        sim_run = metrics["core.simulator.run_s"]
        metrics["core.simulator.firings_per_s"] = (
            metrics["core.simulator.firings"] / sim_run if sim_run > 0 else 0.0
        )
        ens = metrics["core.fast.ensemble_s"]
        metrics["core.fast.firings_per_s"] = (
            metrics["core.fast.firings"] / ens if ens > 0 else 0.0
        )
        gets = metrics["runtime.store.gets"]
        metrics["runtime.store.hit_ratio"] = (
            totals.get("runtime.store.hits", 0.0) / gets if gets > 0 else 0.0
        )
        metrics["trace.wall_s"] = timed_wall_s / max(units, 1)
        metrics["trace.coverage"] = covered / timed_wall_s if timed_wall_s > 0 else 0.0
        return metrics
