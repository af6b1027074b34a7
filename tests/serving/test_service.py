"""The serving invariant, asserted at the :class:`SweepService` layer.

The claims that make a query service *safe* to put in front of the
result store:

1. **Bit-identity** — a served response's output is byte-identical to
   the equivalent ``scenario run``, cold store or warm, whatever
   backend the server resolved.
2. **Warm requests never compute** — a request whose tasks are all in
   the store is answered with zero backend submissions (asserted both
   via the per-job miss counter and a counting backend).
3. **Degradation, not corruption** — a store entry corrupted between
   requests is recomputed (warned, quarantined) and the response still
   matches the reference bit-for-bit; a failing job reports its error
   and the worker keeps serving.
4. **Job control is deterministic** — duplicate in-flight requests
   coalesce by request key, queued jobs cancel immediately, running
   jobs cancel cooperatively at a store checkpoint, shutdown drains.
"""

import dataclasses
import io
import json
import threading
import time
from contextlib import redirect_stdout

import pytest

import repro.models.network as network_module
import repro.serving.service as service_mod
from repro.runtime import ExecutionConfig, StoreWarning, request_key
from repro.runtime.backend import SerialBackend
from repro.runtime.store import ResultStore
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serving import ServiceError, SweepService, parse_request

SCENARIO = {
    "version": 1,
    "name": "serving-test",
    "model": "fig",
    "params": {"number": 14, "horizon": 2.0},
    "execution": {"replications": 2},
}


@pytest.fixture(scope="module")
def reference():
    """``scenario run`` ground truth: (exit code, stdout bytes)."""
    spec = ScenarioSpec.from_dict(SCENARIO)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_scenario(spec)
    return code, buf.getvalue()


class CountingBackend(SerialBackend):
    """Serial backend that counts every item submitted through it."""

    def __init__(self):
        self.items = 0

    def map(self, fn, items, chunk_size=None):
        items = list(items)
        self.items += len(items)
        return super().map(fn, items, chunk_size)

    def submit_chunks(self, fn, chunks):
        self.items += sum(len(items) for _, items in chunks)
        return super().submit_chunks(fn, chunks)


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("progress_interval", 0.0)
    return SweepService(
        ExecutionConfig(store_dir=tmp_path / "store"), **kwargs
    )


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------


class TestParseRequest:
    def test_valid_request_round_trips(self):
        spec = parse_request({"scenario": SCENARIO})
        assert spec == ScenarioSpec.from_dict(SCENARIO)

    def test_overrides_apply_in_order(self):
        spec = parse_request(
            {
                "scenario": SCENARIO,
                "overrides": ["params.horizon=1.0", "params.horizon=3.0"],
            }
        )
        assert spec.params["horizon"] == 3.0

    def test_mapping_overrides_accepted(self):
        spec = parse_request(
            {"scenario": SCENARIO, "overrides": {"params.horizon": 5.0}}
        )
        assert spec.params["horizon"] == 5.0

    def test_non_mapping_body_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_unknown_request_key_named(self):
        with pytest.raises(ServiceError, match="'bogus'"):
            parse_request({"scenario": SCENARIO, "bogus": 1})

    def test_missing_scenario_named(self):
        with pytest.raises(ServiceError, match="'scenario'"):
            parse_request({"overrides": []})

    def test_non_mapping_scenario_rejected(self):
        with pytest.raises(ServiceError, match="scenario"):
            parse_request({"scenario": "fig14.yaml"})

    def test_bad_smoke_type_rejected(self):
        with pytest.raises(ServiceError, match="smoke"):
            parse_request({"scenario": SCENARIO, "smoke": "yes"})

    def test_bad_overrides_type_rejected(self):
        with pytest.raises(ServiceError, match="overrides"):
            parse_request({"scenario": SCENARIO, "overrides": [1]})

    def test_unknown_scenario_version_rejected(self):
        bad = dict(SCENARIO, version=99)
        with pytest.raises(ServiceError, match="version 99"):
            parse_request({"scenario": bad})

    def test_scenario_schema_error_becomes_service_error(self):
        bad = dict(SCENARIO, model="nonsense")
        with pytest.raises(ServiceError, match="model"):
            parse_request({"scenario": bad})


# ----------------------------------------------------------------------
# Execution: bit-identity, warm zero-compute, degradation
# ----------------------------------------------------------------------


class TestServiceExecution:
    def test_cold_run_matches_scenario_run(self, tmp_path, reference):
        ref_code, ref_out = reference
        with make_service(tmp_path) as service:
            job = service.run({"scenario": SCENARIO}, timeout=300)
            assert job.state == "done"
            assert job.result["exit_code"] == ref_code
            assert job.result["output"] == ref_out
            counters = job.result["store"]
            assert counters["hits"] == 0
            assert counters["misses"] == counters["puts"] > 0

    def test_warm_run_hits_everything_zero_backend_tasks(
        self, tmp_path, reference
    ):
        _, ref_out = reference
        with make_service(tmp_path) as service:
            counting = CountingBackend()
            service._rx = dataclasses.replace(service._rx, backend=counting)
            cold = service.run({"scenario": SCENARIO}, timeout=300)
            cold_items = counting.items
            assert cold_items > 0
            warm = service.run({"scenario": SCENARIO}, timeout=300)
            assert warm.result["output"] == ref_out == cold.result["output"]
            assert warm.result["store"]["misses"] == 0
            assert warm.result["store"]["puts"] == 0
            assert warm.result["store"]["hits"] == cold.result["store"]["puts"]
            assert counting.items == cold_items  # not one task more

    def test_corruption_between_requests_recomputes_and_matches(
        self, tmp_path, reference
    ):
        _, ref_out = reference
        with make_service(tmp_path) as service:
            cold = service.run({"scenario": SCENARIO}, timeout=300)
            store = service._rx.store
            victim = sorted(store._entry_files())[0]
            victim.write_bytes(victim.read_bytes()[:-3])
            with pytest.warns(StoreWarning, match="recomputing"):
                warm = service.run({"scenario": SCENARIO}, timeout=300)
            assert warm.state == "done"
            assert warm.result["output"] == ref_out
            assert warm.result["store"]["misses"] == 1
            assert warm.result["store"]["hits"] == (
                cold.result["store"]["puts"] - 1
            )

    def test_nan_request_rejected_and_next_request_completes(
        self, tmp_path, reference
    ):
        # A NaN horizon once passed the schema and never finished,
        # blocking every later job behind it in the FIFO worker.
        _, ref_out = reference
        bad = dict(SCENARIO, params={"number": 14, "horizon": float("nan")})
        with make_service(tmp_path) as service:
            with pytest.raises(ServiceError, match="params.horizon"):
                service.submit({"scenario": bad})
            job = service.run({"scenario": SCENARIO}, timeout=300)
            assert job.state == "done"
            assert job.result["output"] == ref_out

    def test_spec_level_value_error_fails_cleanly(self, tmp_path, monkeypatch):
        def boom(spec, rx):
            raise ValueError("engine mismatch")

        monkeypatch.setattr(service_mod, "scenario_report", boom)
        with make_service(tmp_path) as service:
            job = service.run({"scenario": SCENARIO}, timeout=30)
            assert job.state == "failed"
            assert "engine mismatch" in job.error

    def test_unexpected_exception_fails_job_not_worker(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def flaky(spec, rx):
            calls.append(spec.name)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return "second try\n"

        monkeypatch.setattr(service_mod, "scenario_report", flaky)
        with make_service(tmp_path) as service:
            first = service.run({"scenario": SCENARIO}, timeout=30)
            assert first.state == "failed"
            assert "RuntimeError: boom" in first.error
            again = service.run({"scenario": SCENARIO}, timeout=30)
            assert again.state == "done"  # the worker survived
            assert again.result["exit_code"] == 0
            assert again.result["output"] == "second try\n"

    def test_job_events_trace_the_lifecycle(self, tmp_path):
        with make_service(tmp_path) as service:
            job = service.run({"scenario": SCENARIO}, timeout=300)
            kinds = [e["event"] for e in job.events_since(0)]
            states = [
                e["state"] for e in job.events_since(0) if e["event"] == "state"
            ]
            assert states == ["queued", "running", "done"]
            progress = [e for e in job.events_since(0) if e["event"] == "progress"]
            assert progress, "progress_interval=0 must emit progress events"
            assert progress[-1]["puts"] == job.result["store"]["puts"]
            assert [e["seq"] for e in job.events_since(0)] == list(
                range(len(kinds))
            )

    def test_snapshot_shape(self, tmp_path):
        with make_service(tmp_path) as service:
            job = service.run({"scenario": SCENARIO}, timeout=300)
            snap = job.snapshot()
            assert snap["state"] == "done"
            assert snap["name"] == "serving-test"
            assert snap["model"] == "fig"
            assert len(snap["request_key"]) == 64
            assert snap["result"]["exit_code"] == 0


@pytest.mark.slow
class TestProcessesBackend:
    def test_cold_and_warm_match_reference(self, tmp_path, reference):
        _, ref_out = reference
        execution = ExecutionConfig(
            workers=2, backend="processes", store_dir=tmp_path / "store"
        )
        with SweepService(execution, progress_interval=0.0) as service:
            cold = service.run({"scenario": SCENARIO}, timeout=600)
            assert cold.state == "done"
            assert cold.result["output"] == ref_out
            warm = service.run({"scenario": SCENARIO}, timeout=600)
            assert warm.result["output"] == ref_out
            assert warm.result["store"]["misses"] == 0


    def test_default_backend_pool_outlives_requests(self, monkeypatch):
        # `serve --workers N` without --backend: the pool is built once
        # and kept alive across requests, not rebuilt per map call.
        import concurrent.futures

        built = []

        class CountingPoolExecutor(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", CountingPoolExecutor
        )
        with SweepService(ExecutionConfig(workers=2)) as service:
            for seed in (1, 2):  # two distinct cold requests
                job = service.run(
                    {
                        "scenario": SCENARIO,
                        "overrides": [
                            f"params.seed={seed}",
                            "execution.workers=2",
                        ],
                    },
                    timeout=600,
                )
                assert job.state == "done", job.error
        assert len(built) == 1


# ----------------------------------------------------------------------
# Job control: coalescing, cancellation, shutdown
# ----------------------------------------------------------------------

#: Events of :func:`gated_node_task`: set on the first node task, and
#: waited on by every node task.
NODE_GATE = {"started": threading.Event(), "release": threading.Event()}


def gated_node_task(task):
    """``simulate_node_task`` once :data:`NODE_GATE` is released.

    Module-level, so its tasks have store keys.
    """
    from repro.models.wsn_node import simulate_node_task

    NODE_GATE["started"].set()
    if not NODE_GATE["release"].wait(30):
        raise RuntimeError("gate never released")
    return simulate_node_task(task)



@pytest.fixture
def gated(tmp_path, monkeypatch):
    """A service whose jobs block until ``release`` is set."""
    started = threading.Event()
    release = threading.Event()

    def gated_run(spec, rx):
        started.set()
        if not release.wait(30):
            raise RuntimeError("gate never released")
        return "gated output\n"

    monkeypatch.setattr(service_mod, "scenario_report", gated_run)
    service = make_service(tmp_path)
    yield service, started, release
    release.set()
    service.close()


@pytest.fixture
def spinning(tmp_path, monkeypatch):
    """A service whose jobs poll the store until cancelled."""
    started = threading.Event()

    def spinning_run(spec, rx):
        started.set()
        key = request_key({"spin": spec.name})
        while True:
            rx.store.get(key)  # each get is a cancellation checkpoint
            time.sleep(0.005)

    monkeypatch.setattr(service_mod, "scenario_report", spinning_run)
    service = make_service(tmp_path)
    yield service, started
    service.close()


class TestJobControl:
    def test_duplicate_inflight_requests_coalesce(self, gated):
        service, started, release = gated
        first, created_first = service.submit({"scenario": SCENARIO})
        assert created_first
        assert started.wait(10)
        second, created_second = service.submit({"scenario": SCENARIO})
        assert second is first
        assert not created_second
        release.set()
        assert first.wait(10)
        assert first.state == "done"

    def test_distinct_requests_get_distinct_jobs(self, gated):
        service, started, release = gated
        first, _ = service.submit({"scenario": SCENARIO})
        other = {
            "scenario": SCENARIO,
            "overrides": ["params.horizon=1.0"],
        }
        second, created = service.submit(other)
        assert created
        assert second is not first
        assert second.request_digest != first.request_digest

    def test_terminal_jobs_never_coalesce(self, gated):
        service, started, release = gated
        release.set()
        first = service.run({"scenario": SCENARIO}, timeout=10)
        assert first.state == "done"
        second, created = service.submit({"scenario": SCENARIO})
        assert created
        assert second is not first

    def test_cancel_queued_job_is_immediate(self, gated):
        service, started, release = gated
        running, _ = service.submit({"scenario": SCENARIO})
        assert started.wait(10)
        queued, _ = service.submit(
            {"scenario": SCENARIO, "overrides": ["params.horizon=1.0"]}
        )
        assert queued.state == "queued"
        service.cancel(queued.id)
        assert queued.state == "cancelled"
        assert queued.wait(1)
        release.set()
        assert running.wait(10)
        assert running.state == "done"

    def test_cancel_unknown_job_returns_none(self, gated):
        service, *_ = gated
        assert service.cancel("job-999") is None

    def test_cancel_running_job_is_cooperative(self, spinning):
        service, started = spinning
        job, _ = service.submit({"scenario": SCENARIO})
        assert started.wait(10)
        assert job.state == "running"
        service.cancel(job.id)
        assert job.wait(10)
        assert job.state == "cancelled"
        assert "cancelled" in job.error

    def test_cancel_running_network_sweep(self, tmp_path, monkeypatch):
        # A network sweep is one dispatch: a cancel lands at the next
        # store checkpoint of its round, and the job ends cancelled.
        monkeypatch.setattr(network_module, "simulate_node_task", gated_node_task)
        sweep = {
            "version": 2,
            "name": "network-sweep",
            "model": "network",
            "params": {"nodes": 3, "horizon": 2.0, "sweep": True},
            "execution": {"engine": "interpreted"},
        }
        NODE_GATE["started"].clear()
        NODE_GATE["release"].clear()
        with make_service(tmp_path) as service:
            job, _ = service.submit({"scenario": sweep})
            assert NODE_GATE["started"].wait(30), (job.state, job.error)
            assert job.state == "running"
            service.cancel(job.id)
            NODE_GATE["release"].set()
            assert job.wait(30)
        assert job.state == "cancelled", job.error
        assert "cancelled" in job.error

    def test_close_cancels_queued_and_running(self, spinning):
        service, started = spinning
        running, _ = service.submit({"scenario": SCENARIO})
        assert started.wait(10)
        queued, _ = service.submit(
            {"scenario": SCENARIO, "overrides": ["params.horizon=1.0"]}
        )
        service.close()
        assert running.state == "cancelled"
        assert queued.state == "cancelled"
        with pytest.raises(ServiceError, match="shut down"):
            service.submit({"scenario": SCENARIO})

    def test_job_output_is_its_report_not_process_stdout(self, gated, capsys):
        """Printing while a job runs reaches stdout, not the job's output."""
        service, started, release = gated
        job, _ = service.submit({"scenario": SCENARIO})
        assert started.wait(10)
        print("printed by the test thread")
        release.set()
        assert job.wait(10)
        assert job.state == "done"
        assert job.result["output"] == "gated output\n"
        assert capsys.readouterr().out == "printed by the test thread\n"

    def test_run_timeout_raises(self, gated):
        service, started, release = gated
        with pytest.raises(TimeoutError, match="running"):
            service.run({"scenario": SCENARIO}, timeout=0.2)
        release.set()


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


class TestStats:
    def test_stats_aggregate_jobs_and_store(self, tmp_path):
        with make_service(tmp_path) as service:
            service.run({"scenario": SCENARIO}, timeout=300)
            service.run({"scenario": SCENARIO}, timeout=300)
            service.record_request("GET /stats", 1.5)
            service.record_request("POST /run", 2.5, error=True)
            stats = service.stats()
            assert stats["jobs"]["total"] == 2
            assert stats["jobs"]["done"] == 2
            assert stats["jobs"]["latency_ms"]["count"] == 2
            assert stats["requests"]["total"] == 2
            assert stats["requests"]["errors"] == 1
            assert stats["requests"]["by_endpoint"] == {
                "GET /stats": 1,
                "POST /run": 1,
            }
            store = stats["store"]
            assert store["enabled"]
            assert store["hits"] == store["puts"] == store["misses"] > 0
            assert store["hit_rate"] == pytest.approx(0.5)


class TestStoreCounters:
    def test_jobs_leave_the_manifest_and_close_writes_it_once(
        self, tmp_path, monkeypatch
    ):
        writes = []
        write = ResultStore._write_manifest

        def counting_write(store, manifest):
            writes.append(manifest)
            write(store, manifest)

        monkeypatch.setattr(ResultStore, "_write_manifest", counting_write)
        with make_service(tmp_path) as service:
            manifest = service._rx.store.manifest_path

            def state():
                st = manifest.stat()
                return manifest.read_bytes(), st.st_mtime_ns, st.st_ino

            before = state()
            writes.clear()
            jobs = [
                service.run({"scenario": SCENARIO}, timeout=300)
                for _ in range(2)
            ]
            assert [job.state for job in jobs] == ["done", "done"]
            assert state() == before
            assert writes == []
            live = service.stats()["store"]
        assert len(writes) == 1
        counters = json.loads(manifest.read_text())["counters"]
        for name in ("hits", "misses", "puts"):
            summed = sum(job.result["store"][name] for job in jobs)
            assert counters[name] == summed == live[name]
        assert counters["hits"] == counters["misses"] > 0
