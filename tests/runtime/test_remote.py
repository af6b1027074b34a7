"""Socket backend: protocol, bit-identity, drop re-queue, CLI workers.

The heavier tests launch real worker subprocesses (``python -m
repro.cli worker --serve 0``) on localhost and assert the headline
multi-host contract: a network sweep dispatched over TCP is
bit-identical to the serial backend, and a worker lost mid-run only
costs capacity, never results.
"""

import multiprocessing
import os
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

from repro.experiments.network import (
    NetworkScenarioConfig,
    run_network_lifetime_sweep,
)
from repro.models import LineTopology
from repro.runtime import ParallelExecutor, SerialBackend, TaskError
from repro.runtime.remote import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    SocketBackend,
    WorkerPoolError,
    parse_address,
    recv_frame,
    send_frame,
    serve_worker,
)
from repro.runtime.config import ExecutionConfig, ResolvedExecution

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Env var that makes ``suicidal_task`` kill its host process — set on
#: one worker to simulate a host dropping mid-run.
SUICIDE_ENV = "REPRO_TEST_WORKER_SUICIDE"


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


def suicidal_task(x):
    if os.environ.get(SUICIDE_ENV):
        os._exit(17)  # hard kill: no frame goes back, the socket drops
    return x * x


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert parse_address("9000") == ("127.0.0.1", 9000)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("hostname")
        with pytest.raises(ValueError, match="port must be"):
            parse_address("host:0")
        with pytest.raises(ValueError, match="port must be"):
            parse_address("host:70000")


class TestFrames:
    def test_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            payload = {"seeds": list(range(5)), "nested": ("x", 1.5)}
            send_frame(a, payload)
            send_frame(a, ("chunk", 0))
            assert recv_frame(b) == payload
            assert recv_frame(b) == ("chunk", 0)

    def test_eof_raises_connection_closed(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_frame(b)

    def test_version_mismatch_refused(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(b, ("hello", PROTOCOL_VERSION + 1))
            from repro.runtime.remote import _handshake

            with pytest.raises(ProtocolError, match="version mismatch"):
                _handshake(a)


def _threaded_worker(max_sessions=1):
    """In-process worker on an ephemeral port; returns (thread, port)."""
    ready = threading.Event()
    ports = []

    def announce(line):
        ports.append(int(line.rsplit(":", 1)[1]))
        ready.set()

    thread = threading.Thread(
        target=serve_worker,
        args=(0,),
        kwargs={"max_sessions": max_sessions, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "worker never announced its port"
    return thread, ports[0]


class TestSocketBackendInProcess:
    def test_bit_identical_to_serial(self):
        thread, port = _threaded_worker()
        backend = SocketBackend([f"127.0.0.1:{port}"])
        items = list(range(23))
        assert backend.map(square, items) == SerialBackend().map(square, items)
        thread.join(10)

    def test_chunk_size_never_changes_results(self):
        thread, port = _threaded_worker(max_sessions=3)
        backend = SocketBackend([f"127.0.0.1:{port}"])
        expected = [x * x for x in range(11)]
        for chunk in (1, 3, 100):
            assert backend.map(square, range(11), chunk_size=chunk) == expected
        thread.join(10)

    def test_executor_routes_through_socket(self):
        thread, port = _threaded_worker()
        pool = ParallelExecutor(backend=SocketBackend([f"127.0.0.1:{port}"]))
        assert pool.map(square, range(7)) == [x * x for x in range(7)]
        thread.join(10)

    def test_remote_task_error_carries_global_index(self):
        thread, port = _threaded_worker()
        backend = SocketBackend([f"127.0.0.1:{port}"])
        with pytest.raises(TaskError) as exc_info:
            backend.map(fail_on_three, [0, 1, 2, 3, 4], chunk_size=5)
        assert exc_info.value.index == 3
        assert exc_info.value.item == 3
        assert "boom at three" in exc_info.value.message
        thread.join(10)

    def test_unreachable_worker_fails_fast(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        backend = SocketBackend(
            [f"127.0.0.1:{free_port}"], connect_timeout=0.5
        )
        with pytest.raises(WorkerPoolError, match="could not connect"):
            backend.map(square, [1, 2, 3])

    def test_empty_items(self):
        backend = SocketBackend(["127.0.0.1:1"])  # never connected
        assert backend.map(square, []) == []

    def test_duplicate_address_degrades_instead_of_deadlocking(self):
        # A worker serves one dispatcher session at a time, so the
        # second connection to the same address can never handshake;
        # it must time out and leave a 1-link pool, not hang the run.
        thread, port = _threaded_worker()
        backend = SocketBackend(
            [f"127.0.0.1:{port}", f"127.0.0.1:{port}"], connect_timeout=1.0
        )
        assert backend.map(square, range(8)) == [x * x for x in range(8)]
        thread.join(10)

    def test_unpicklable_item_raises_instead_of_hanging(self):
        # A task item pickle rejects is a *caller* bug: it must surface
        # as the real error, not retry on every worker until a
        # misleading WorkerPoolError (or a hang — the original bug).
        thread, port = _threaded_worker()
        backend = SocketBackend([f"127.0.0.1:{port}"])
        with pytest.raises(TypeError, match="pickle"):
            backend.map(square, [1, threading.Lock(), 3], chunk_size=3)
        thread.join(10)

    def test_worker_survives_bad_client_then_serves(self):
        # A version-mismatched (or garbage) client must cost one
        # session, not the worker: the next dispatcher still gets
        # served.
        thread, port = _threaded_worker(max_sessions=2)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as bad:
            send_frame(bad, ("hello", PROTOCOL_VERSION + 1))
            with pytest.raises((ConnectionClosed, OSError)):
                while True:  # worker drops us once it sees the mismatch
                    recv_frame(bad)
        backend = SocketBackend([f"127.0.0.1:{port}"])
        assert backend.map(square, [2, 3]) == [4, 9]
        thread.join(10)


def _forked_worker(env=None):
    """Worker in a forked process; returns (process, port).

    ``env`` entries are set around the fork so the child inherits them
    (the suicide switch for drop tests).
    """
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    saved = {}
    for key, value in (env or {}).items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        process = ctx.Process(
            target=serve_worker,
            args=(0,),
            kwargs={"max_sessions": 1, "announce": queue.put},
            daemon=True,
        )
        process.start()
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    line = queue.get(timeout=20)
    return process, int(line.rsplit(":", 1)[1])


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="drop tests fork worker processes",
)
class TestDroppedWorkers:
    def test_dropped_worker_chunks_are_requeued(self):
        # Worker A dies on its first chunk (hard os._exit, socket
        # drops); worker B must finish the whole map regardless.
        dying, port_a = _forked_worker(env={SUICIDE_ENV: "1"})
        surviving, port_b = _forked_worker()
        backend = SocketBackend(
            [f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"]
        )
        items = list(range(20))
        try:
            result = backend.map(suicidal_task, items, chunk_size=2)
            assert result == [x * x for x in items]
        finally:
            dying.join(10)
            surviving.terminate()
            surviving.join(10)
        assert dying.exitcode == 17  # it really was killed mid-chunk

    def test_all_workers_dropped_raises(self):
        dying, port = _forked_worker(env={SUICIDE_ENV: "1"})
        backend = SocketBackend([f"127.0.0.1:{port}"])
        try:
            with pytest.raises(WorkerPoolError, match="every worker"):
                backend.map(suicidal_task, list(range(6)), chunk_size=2)
        finally:
            dying.join(10)


def _cli_worker(extra_env=None):
    """Real ``repro.cli worker`` subprocess; returns (Popen, port)."""
    env = os.environ.copy()
    env.update(extra_env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--serve",
            "0",
            "--max-sessions",
            "64",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = process.stdout.readline()  # blocks until the announce line
    assert "listening on" in line, f"unexpected worker output: {line!r}"
    return process, int(line.strip().rsplit(":", 1)[1])


class TestEndToEndCliWorkers:
    """The flagship contract: 2 worker subprocesses, network sweep."""

    def test_sharded_network_sweep_bit_identical_to_serial(self):
        config = NetworkScenarioConfig(
            topology=LineTopology(4),
            horizon=5.0,
            thresholds=(0.00178, 0.1),
            seed=2010,
        )
        serial = run_network_lifetime_sweep(config, exec_cfg=ExecutionConfig())
        worker_a, port_a = _cli_worker()
        worker_b, port_b = _cli_worker()
        try:
            backend = SocketBackend(
                [f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"]
            )
            remote = run_network_lifetime_sweep(
                config, exec_cfg=ResolvedExecution(backend=backend)
            )
        finally:
            worker_a.terminate()
            worker_b.terminate()
            worker_a.wait(10)
            worker_b.wait(10)
        assert remote.thresholds == serial.thresholds
        for remote_result, serial_result in zip(
            remote.results, serial.results
        ):
            assert remote_result == serial_result  # bit-identical dataclasses
