"""Warm cache runs are byte-identical to cold runs, everywhere.

The result store's whole value rests on one claim: serving a result
from disk is indistinguishable from recomputing it.  This suite pins
that claim across the full execution matrix — every shipped model
(closed/open WSN node, CPU Petri comparison, Section V validation),
both engines, and all three backend families (in-process serial,
process pool, socket workers) — by fingerprinting each run at
*per-replication* granularity and comparing against one interpreted
serial store-less baseline per model.

Comparing per store entry (one pickle per replication result) rather
than pickling whole aggregates is deliberate: pickle memoizes shared
sub-objects, so two aggregates of bit-identical elements can still
serialize differently depending on whether the elements were computed
in-process (shared interned strings) or unpickled independently from
the cache.  Per-entry pickles are stable across that round-trip.

Also covered here: mid-run corruption recovery at driver level, the
adaptive max_replications top-up reusing the cached prefix, and
cross-engine cache sharing.
"""

import pickle
import threading

import pytest

from repro.experiments.figures import CPUComparisonConfig, run_cpu_comparison
from repro.experiments.node_energy import NodeSweepConfig, run_node_energy_sweep
from repro.experiments.validation import (
    ValidationConfig,
    percent_difference,
    run_simple_node_validation,
)
from repro.runtime.remote import SocketBackend, serve_worker
from repro.runtime.store import ResultStore, StoreWarning
from repro.runtime.config import ResolvedExecution

REPLICATIONS = 2


def _wsn_config(workload):
    return NodeSweepConfig(
        workload=workload,
        horizon=2.0,
        thresholds=(0.001, 0.00178),
        seed=2010,
    )


def _run_wsn_closed(engine, backend, workers, store):
    return run_node_energy_sweep(
        _wsn_config("closed"),
        exec_cfg=ResolvedExecution(
            workers=workers,
            replications=REPLICATIONS,
            backend=backend,
            engine=engine,
            store=store,
        ),
    )


def _run_wsn_open(engine, backend, workers, store):
    return run_node_energy_sweep(
        _wsn_config("open"),
        exec_cfg=ResolvedExecution(
            workers=workers,
            replications=REPLICATIONS,
            backend=backend,
            engine=engine,
            store=store,
        ),
    )


def _run_cpu_petri(engine, backend, workers, store):
    return run_cpu_comparison(
        0.1,
        CPUComparisonConfig(horizon=30.0, thresholds=(0.1, 1.0), seed=2010),
        exec_cfg=ResolvedExecution(
            workers=workers,
            replications=REPLICATIONS,
            backend=backend,
            engine=engine,
            store=store,
        ),
    )


def _run_simple_node(engine, backend, workers, store):
    return run_simple_node_validation(
        ValidationConfig(n_events=5, petri_horizon=60.0, petri_warmup=0.0),
        exec_cfg=ResolvedExecution(
            workers=workers,
            replications=REPLICATIONS,
            backend=backend,
            engine=engine,
            store=store,
        ),
    )


def _fingerprint_sweep(result):
    """One pickle per (point, replication) node result."""
    return [
        pickle.dumps(r, 5) for point in result.replicates for r in point
    ]


def _fingerprint_cpu(result):
    """One pickle per estimator series (pure floats — memo-safe)."""
    out = [pickle.dumps(result.thresholds, 5)]
    for estimator in sorted(result.energy_j):
        out.append(
            pickle.dumps((estimator, tuple(result.energy_j[estimator])), 5)
        )
    for estimator in sorted(result.fractions):
        for state in sorted(result.fractions[estimator]):
            out.append(
                pickle.dumps(
                    (estimator, state, tuple(result.fractions[estimator][state])),
                    5,
                )
            )
    return out


def _fingerprint_validation(result):
    """Replication 0's (hardware, petri, energy) entry + all headlines."""
    return [
        pickle.dumps((result.hardware, result.petri, result.petri_energy_j), 5),
        pickle.dumps(tuple(map(percent_difference, result.run.values)), 5),
    ]


MODELS = {
    "wsn_closed": (_run_wsn_closed, _fingerprint_sweep),
    "wsn_open": (_run_wsn_open, _fingerprint_sweep),
    "cpu_petri": (_run_cpu_petri, _fingerprint_cpu),
    "simple_node": (_run_simple_node, _fingerprint_validation),
}
ENGINES = ("interpreted", "vectorized")
BACKENDS = ("serial", "processes", "socket")


@pytest.fixture(scope="module")
def socket_port():
    """One in-process socket worker shared by the whole module."""
    ready = threading.Event()
    ports = []

    def announce(line):
        ports.append(int(line.rsplit(":", 1)[1]))
        ready.set()

    threading.Thread(
        target=serve_worker,
        args=(0,),
        kwargs={"max_sessions": None, "announce": announce},
        daemon=True,
    ).start()
    assert ready.wait(10), "worker never announced its port"
    return ports[0]


def _execution(backend_kind, socket_port):
    """(backend, workers) for one backend family."""
    if backend_kind == "serial":
        return None, 1
    if backend_kind == "processes":
        return None, 2
    return SocketBackend([f"127.0.0.1:{socket_port}"]), 1


@pytest.fixture(scope="module")
def baseline():
    """Lazy per-model fingerprint of the interpreted serial plain run."""
    cache = {}

    def get(model):
        if model not in cache:
            run, fingerprint = MODELS[model]
            cache[model] = fingerprint(run("interpreted", None, 1, None))
        return cache[model]

    return get


class TestWarmEqualsCold:
    """4 models x 2 engines x 3 backends: the acceptance matrix."""

    @pytest.mark.parametrize("backend_kind", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matrix(
        self, model, engine, backend_kind, baseline, socket_port, tmp_path
    ):
        run, fingerprint = MODELS[model]
        backend, workers = _execution(backend_kind, socket_port)
        store = ResultStore(tmp_path)

        cold = run(engine, backend, workers, store)
        assert fingerprint(cold) == baseline(model), (
            "a cold store-backed run must match the store-less baseline"
        )
        assert store.hits == 0
        assert store.puts > 0
        cold_misses, puts = store.misses, store.puts

        warm = run(engine, backend, workers, store)
        assert fingerprint(warm) == baseline(model), (
            "a warm run must be byte-identical to the cold one"
        )
        assert store.misses == cold_misses, "warm run must not recompute"
        assert store.hits == puts, "every entry must be served back"


class TestCrossEngineSharing:
    def test_vectorized_reads_interpreted_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        run, fingerprint = MODELS["wsn_closed"]
        cold = run("interpreted", None, 1, store)
        store.hits = store.misses = 0
        warm = run("vectorized", None, 1, store)
        assert store.misses == 0, "engines must share one equivalence class"
        assert fingerprint(warm) == fingerprint(cold)

    def test_interpreted_reads_vectorized_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        run, fingerprint = MODELS["wsn_open"]
        cold = run("vectorized", None, 1, store)
        store.hits = store.misses = 0
        warm = run("interpreted", None, 1, store)
        assert store.misses == 0
        assert fingerprint(warm) == fingerprint(cold)


class TestCorruptionRecoveryMidRun:
    def test_driver_recovers_from_a_corrupted_entry(self, tmp_path):
        run, fingerprint = MODELS["wsn_closed"]
        store = ResultStore(tmp_path)
        cold = run("interpreted", None, 1, store)
        victim = store._entry_files()[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-4])  # truncate the payload
        with pytest.warns(StoreWarning, match="recomputing"):
            warm = run("interpreted", None, 1, store)
        assert fingerprint(warm) == fingerprint(cold)
        assert store.corrupt == 1
        # The recompute healed the entry: a third run is all hits again.
        store.hits = store.misses = 0
        with _no_warnings():
            healed = run("interpreted", None, 1, store)
        assert store.misses == 0
        assert fingerprint(healed) == fingerprint(cold)


class TestAdaptiveTopUp:
    """Raising max_replications serves the cached prefix, computes the delta."""

    @staticmethod
    def _adaptive(max_replications, store):
        # ci_target far below reach: every point runs to max_replications,
        # making the executed counts deterministic.
        return run_node_energy_sweep(
            _wsn_config("closed"),
            exec_cfg=ResolvedExecution(
                ci_target=1e-9,
                replications=2,
                max_replications=max_replications,
                store=store,
            ),
        )

    def test_top_up_reuses_the_cached_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        short = self._adaptive(2, store)
        store.hits = store.misses = 0

        long = self._adaptive(4, store)
        n_points = len(_wsn_config("closed").thresholds)
        assert store.hits == n_points * 2, "the cached prefix must be served"
        assert store.misses == n_points * 2, "only the delta is computed"
        for short_point, long_point in zip(short.replicates, long.replicates):
            assert [pickle.dumps(r, 5) for r in long_point[:2]] == [
                pickle.dumps(r, 5) for r in short_point
            ]
        uncached = self._adaptive(4, None)
        assert _fingerprint_sweep(long) == _fingerprint_sweep(uncached), (
            "a topped-up run must be bit-identical to an uncached full run"
        )


class _no_warnings:
    """Context manager asserting no StoreWarning is raised inside."""

    def __enter__(self):
        import warnings

        self._catcher = warnings.catch_warnings(record=True)
        self._records = self._catcher.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        bad = [w for w in self._records if issubclass(w.category, StoreWarning)]
        assert not bad, f"unexpected StoreWarning: {[str(w.message) for w in bad]}"
        return False
