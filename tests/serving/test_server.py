"""The HTTP front end: routing, error mapping, streaming, disconnects.

The service-layer invariants are asserted in ``test_service.py``; this
module checks that the HTTP surface preserves them — a ``/run``
response body carries the byte-identical output, schema violations map
to 400 with the offending key in the message, unknown jobs to 404,
wrong methods to 405, malformed JSON to 400 — and that a client
hanging up mid-stream ends only its own response (the job keeps
running and stays pollable).  Connections are HTTP/1.1 keep-alive:
one connection carries many JSON requests, error answers included,
while a response sent before the request body was read and both
NDJSON streams close theirs; the client reuses one connection and
reconnects once when a server restart closed it.
"""

import http.client
import io
import json
import socket
import threading
import time
from contextlib import redirect_stdout

import pytest

import repro.serving.service as service_mod
from repro.runtime import ExecutionConfig
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serving import (
    ServerError,
    SweepService,
    fetch_json,
    fetch_stats,
    query_server,
    serve_http,
)
from repro.serving import client as client_mod

SCENARIO = {
    "version": 1,
    "name": "serving-http-test",
    "model": "fig",
    "params": {"number": 14, "horizon": 2.0},
    "execution": {"replications": 2},
}


@pytest.fixture(scope="module")
def reference():
    spec = ScenarioSpec.from_dict(SCENARIO)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_scenario(spec)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One real server over one warm-able store, shared by the module."""
    store_dir = tmp_path_factory.mktemp("serving-http") / "store"
    service = SweepService(
        ExecutionConfig(store_dir=store_dir), progress_interval=0.0
    )
    server, _thread = serve_http(service)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def gated(tmp_path, monkeypatch):
    """A server whose jobs block until ``release`` is set."""
    started = threading.Event()
    release = threading.Event()

    def gated_run(spec, rx):
        started.set()
        if not release.wait(30):
            raise RuntimeError("gate never released")
        return "gated output\n"

    monkeypatch.setattr(service_mod, "scenario_report", gated_run)
    service = SweepService(
        ExecutionConfig(store_dir=tmp_path / "store"), progress_interval=0.0
    )
    server, _thread = serve_http(service)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", started, release
    release.set()
    server.shutdown()
    server.server_close()
    service.close()


def _conn(base):
    host, port = base.removeprefix("http://").split(":")
    return http.client.HTTPConnection(host, int(port), timeout=30)


class TestEndpoints:
    def test_health(self, live):
        base, _ = live
        assert fetch_json(base, "/health") == {"status": "ok"}

    def test_sync_run_matches_reference_and_stats_count_hits(
        self, live, reference
    ):
        base, _ = live
        ref_code, ref_out = reference
        cold = query_server(base, {"scenario": SCENARIO}, mode="sync")
        assert cold["state"] == "done"
        assert cold["result"]["exit_code"] == ref_code
        assert cold["result"]["output"] == ref_out
        before = fetch_stats(base)["store"]
        warm = query_server(base, {"scenario": SCENARIO}, mode="sync")
        assert warm["result"]["output"] == ref_out
        after = fetch_stats(base)["store"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]
        assert after["puts"] == before["puts"]

    def test_stream_mode_delivers_events_then_snapshot(self, live, reference):
        base, _ = live
        _, ref_out = reference
        events = []
        snap = query_server(
            base, {"scenario": SCENARIO}, mode="stream", on_event=events.append
        )
        assert snap["result"]["output"] == ref_out
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_poll_mode_walks_the_job_endpoints(self, live, reference):
        base, _ = live
        _, ref_out = reference
        events = []
        snap = query_server(
            base, {"scenario": SCENARIO}, mode="poll", on_event=events.append
        )
        assert snap["state"] == "done"
        assert snap["result"]["output"] == ref_out
        assert [e["seq"] for e in events] == list(range(len(events)))
        # and the job stays inspectable afterwards
        again = fetch_json(base, f"/jobs/{snap['id']}")
        assert again["state"] == "done"
        listing = fetch_json(base, "/jobs")
        assert snap["id"] in {j["id"] for j in listing["jobs"]}

    def test_events_endpoint_supports_since(self, live):
        base, _ = live
        snap = query_server(base, {"scenario": SCENARIO}, mode="sync")
        total = snap["events"]
        page = fetch_json(base, f"/jobs/{snap['id']}/events?since={total - 1}")
        assert [e["seq"] for e in page["events"]] == [total - 1]

    def test_stats_shape(self, live):
        base, _ = live
        stats = fetch_stats(base)
        assert set(stats) == {"requests", "latency_ms", "jobs", "store"}
        assert stats["requests"]["total"] > 0
        assert stats["latency_ms"]["count"] > 0
        assert stats["store"]["enabled"]


class TestErrorMapping:
    def test_schema_violation_is_400_naming_the_key(self, live):
        base, _ = live
        with pytest.raises(ServerError, match="'bogus'") as err:
            query_server(base, {"scenario": SCENARIO, "bogus": 1})
        assert err.value.status == 400

    def test_unknown_scenario_version_is_400(self, live):
        base, _ = live
        bad = dict(SCENARIO, version=99)
        with pytest.raises(ServerError, match="version 99") as err:
            query_server(base, {"scenario": bad})
        assert err.value.status == 400

    def test_malformed_json_body_is_400(self, live):
        base, _ = live
        conn = _conn(base)
        conn.request(
            "POST", "/run", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        conn.close()
        assert resp.status == 400
        assert "not valid JSON" in payload["error"]

    def test_empty_body_is_400(self, live):
        base, _ = live
        conn = _conn(base)
        conn.request("POST", "/run", body=b"")
        resp = conn.getresponse()
        conn.close()
        assert resp.status == 400

    def test_oversized_body_is_413(self, live):
        base, _ = live
        conn = _conn(base)
        conn.putrequest("POST", "/run")
        conn.putheader("Content-Length", str(10 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        conn.close()
        assert resp.status == 413

    @pytest.mark.parametrize(
        "size",
        [(1 << 20) + 10, 2 << 20, 8 << 20],
        ids=["1MiB+10B", "2MiB", "8MiB"],
    )
    def test_client_sending_an_oversized_body_reads_the_413(self, live, size):
        # The server answers before reading the body; the client is
        # still sending it and must get the answer, not a reset.
        base, _ = live
        body = b" " * size
        for _ in range(20):
            conn = _conn(base)
            conn.request("POST", "/run", body=body)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            conn.close()
            assert resp.status == 413
            assert payload == {"error": "request body exceeds 1048576 bytes"}

    def test_unknown_job_is_404(self, live):
        base, _ = live
        with pytest.raises(ServerError) as err:
            fetch_json(base, "/jobs/job-99999")
        assert err.value.status == 404

    def test_unknown_path_is_404(self, live):
        base, _ = live
        with pytest.raises(ServerError) as err:
            fetch_json(base, "/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405(self, live):
        base, _ = live
        with pytest.raises(ServerError) as err:
            fetch_json(base, "/run")  # GET on a POST endpoint
        assert err.value.status == 405

    def test_errors_count_in_stats(self, live):
        base, _ = live
        before = fetch_stats(base)["requests"]["errors"]
        with pytest.raises(ServerError):
            fetch_json(base, "/nope")
        after = fetch_stats(base)["requests"]["errors"]
        assert after == before + 1


class TestJobsOverHTTP:
    def test_submit_returns_202_and_coalesces_duplicates(self, gated):
        base, started, release = gated
        conn = _conn(base)
        body = json.dumps({"scenario": SCENARIO}).encode()
        conn.request("POST", "/jobs", body=body)
        resp = conn.getresponse()
        first = json.loads(resp.read())
        conn.close()
        assert resp.status == 202
        assert first["created_now"]
        assert started.wait(10)
        conn = _conn(base)
        conn.request("POST", "/jobs", body=body)
        resp = conn.getresponse()
        second = json.loads(resp.read())
        conn.close()
        assert resp.status == 200  # coalesced, not re-created
        assert not second["created_now"]
        assert second["id"] == first["id"]
        release.set()

    def test_cancel_endpoint_cancels_a_queued_job(self, gated):
        base, started, release = gated
        running = fetch_json_post(base, "/jobs", {"scenario": SCENARIO})
        assert started.wait(10)
        queued = fetch_json_post(
            base,
            "/jobs",
            {"scenario": SCENARIO, "overrides": ["params.horizon=1.0"]},
        )
        assert queued["state"] == "queued"
        cancelled = fetch_json_post(base, f"/jobs/{queued['id']}/cancel", {})
        assert cancelled["state"] == "cancelled"
        release.set()
        done = _wait_done(base, running["id"])
        assert done["state"] == "done"

    def test_client_disconnect_mid_stream_leaves_job_running(self, gated):
        import socket

        base, started, release = gated
        host, port = base.removeprefix("http://").split(":")
        body = json.dumps({"scenario": SCENARIO}).encode()
        sock = socket.create_connection((host, int(port)), timeout=30)
        sock.sendall(
            (
                f"POST /run?stream=1 HTTP/1.0\r\nHost: {host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        stream = sock.makefile("rb")
        while stream.readline() not in (b"\r\n", b"\n", b""):
            pass  # skip the response headers
        first = json.loads(stream.readline())
        assert first["event"] == "state"
        assert started.wait(10)
        stream.close()
        sock.close()  # hang up mid-stream, job still running
        listing = fetch_json(base, "/jobs")
        [job] = [j for j in listing["jobs"] if j["state"] == "running"]
        job_id = job["id"]
        release.set()
        final = _wait_done(base, job_id)
        assert final["state"] == "done"
        assert final["result"]["output"] == "gated output\n"


def fetch_json_post(base, path, body):
    conn = _conn(base)
    conn.request("POST", path, body=json.dumps(body).encode())
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    conn.close()
    assert resp.status < 300, payload
    return payload


def _wait_done(base, job_id, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = fetch_json(base, f"/jobs/{job_id}")
        if snap["state"] in ("done", "failed", "cancelled"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


def _raw_exchange(base, request):
    """Send raw ``request`` bytes; everything received until the server
    closes the connection (a socket timeout if it never does)."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


# A complete request hidden in a body the server must not read: were it
# parsed as the next request, a second response would follow.
SMUGGLED = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"


class TestKeepAlive:
    def test_one_connection_carries_many_requests(self, live):
        base, _ = live
        conn = _conn(base)
        schema_error = json.dumps({"scenario": SCENARIO, "bogus": 1}).encode()
        requests = [
            ("GET", "/health", None),
            ("POST", "/run", b"{not json"),
            ("GET", "/nope", None),
            ("POST", "/run", schema_error),
            ("GET", "/stats", None),
        ]
        statuses, socks = [], set()
        for method, path, body in requests:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            resp.read()
            assert not resp.will_close
            statuses.append(resp.status)
            socks.add(conn.sock)
        conn.close()
        assert statuses == [200, 400, 404, 400, 200]
        assert len(socks) == 1

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /run HTTP/1.1\r\nContent-Length: 10485760", b"413"),
            (b"POST /run HTTP/1.1\r\nContent-Length: many", b"400"),
            (b"POST /run HTTP/1.1\r\nContent-Length: -1", b"400"),
            (b"POST /health HTTP/1.1\r\nContent-Length: LEN", b"405"),
            (b"POST /nope HTTP/1.1\r\nContent-Length: LEN", b"404"),
        ],
        ids=["413", "bad-length", "negative-length", "405", "404"],
    )
    def test_answer_before_the_body_closes_the_connection(
        self, live, head, status
    ):
        base, _ = live
        head = head.replace(b"LEN", str(len(SMUGGLED)).encode())
        reply = _raw_exchange(
            base, head + b"\r\nHost: test\r\n\r\n" + SMUGGLED
        )
        assert reply.startswith(b"HTTP/1.1 " + status)
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_stream_endpoints_close_the_connection(self, live):
        base, _ = live
        body = json.dumps({"scenario": SCENARIO}).encode()
        conn = _conn(base)
        conn.request("POST", "/run?stream=1", body=body)
        resp = conn.getresponse()
        assert resp.getheader("Connection") == "close"
        assert resp.getheader("Content-Length") is None
        lines = resp.read().splitlines()  # returns at the server's EOF
        end = json.loads(lines[-1])
        assert end["event"] == "end"
        assert end["job"]["state"] == "done"
        reply = _raw_exchange(
            base,
            f"GET /jobs/{end['job']['id']}/stream HTTP/1.1\r\n"
            "Host: test\r\n\r\n".encode(),
        )
        head, _, stream = reply.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in head
        assert json.loads(stream.splitlines()[-1]) == end
        conn.close()

    def test_fifty_requests_on_one_connection_do_not_stall(self, live):
        # Nagle's algorithm against the client's delayed ACK would hold
        # every response for ~40 ms: 2 s for these 50.
        base, _ = live
        conn = _conn(base)
        t0 = time.perf_counter()
        for _ in range(50):
            conn.request("GET", "/health")
            conn.getresponse().read()
        raw_s = time.perf_counter() - t0
        conn.close()
        t0 = time.perf_counter()
        for _ in range(50):
            fetch_json(base, "/health")
        client_s = time.perf_counter() - t0
        assert raw_s < 1.0
        assert client_s < 1.0

    def test_server_close_ends_idle_keepalive_handlers(self):
        service = SweepService(ExecutionConfig(), progress_interval=0.0)
        before = set(threading.enumerate())
        server, thread = serve_http(service)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/health")
        conn.getresponse().read()
        conn.request("GET", "/health")
        conn.getresponse().read()
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(10)
        for handler in set(threading.enumerate()) - before:
            handler.join(10)
            assert not handler.is_alive(), handler.name
        assert conn.sock.recv(1) == b""  # the server hung up
        conn.close()


class TestClientConnection:
    def test_query_server_reuses_one_connection_and_reconnects(
        self, tmp_path, reference
    ):
        _, ref_out = reference
        service = SweepService(
            ExecutionConfig(store_dir=tmp_path / "store"),
            progress_interval=0.0,
        )
        server, _thread = serve_http(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        request = {"scenario": SCENARIO}
        try:
            assert query_server(base, request)["result"]["output"] == ref_out
            conn = client_mod._local.connections[f"{host}:{port}"]
            sock = conn.sock
            assert sock is not None
            assert fetch_json(base, "/health") == {"status": "ok"}
            warm = query_server(base, request)
            assert conn.sock is sock
            # A restart on the same port closes the kept connection; the
            # next call notices and sends its request once more.
            server.shutdown()
            server.server_close()
            server, _thread = serve_http(service, host=host, port=port)
            again = query_server(base, request)
            assert conn.sock is not sock
            assert again["result"]["output"] == ref_out
            assert again["result"]["store"] == warm["result"]["store"]
            assert again["result"]["store"]["misses"] == 0
            server.shutdown()
            server.server_close()
            server = None
            # No server at all: the one retry fails and the error shows.
            with pytest.raises(ConnectionRefusedError):
                fetch_json(base, "/health")
        finally:
            if server is not None:
                server.shutdown()
                server.server_close()
            service.close()

    def test_error_status_keeps_the_connection(self, live):
        base, _ = live
        fetch_json(base, "/health")
        netloc = base.removeprefix("http://")
        sock = client_mod._local.connections[netloc].sock
        with pytest.raises(ServerError, match="no such path") as err:
            fetch_json(base, "/nope")
        assert err.value.status == 404
        assert fetch_json(base, "/health") == {"status": "ok"}
        assert client_mod._local.connections[netloc].sock is sock

    def test_stream_mode_then_sync_on_a_fresh_connection(self, live, reference):
        base, _ = live
        _, ref_out = reference
        request = {"scenario": SCENARIO}
        streamed = query_server(base, request, mode="stream")
        synced = query_server(base, request, mode="sync")
        assert streamed["result"]["output"] == synced["result"]["output"] == ref_out

    def test_server_url_must_be_http(self):
        with pytest.raises(ValueError, match="http://HOST:PORT"):
            fetch_json("localhost:8123", "/health")
