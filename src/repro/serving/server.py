"""Stdlib-only JSON/HTTP front end for :class:`~repro.serving.SweepService`.

One :class:`SweepHTTPServer` (a ``ThreadingHTTPServer`` with daemon
handler threads) wraps one service.  Handler threads only parse, queue
and serialise — every job still runs on the service's single worker
thread, so concurrent HTTP clients cannot interleave job output or
counters.

Endpoints (all request/response bodies are JSON)::

    GET  /health                 liveness probe
    GET  /stats                  request/job/store counters
    GET  /jobs                   every job, newest last
    POST /jobs                   submit; 202 + job snapshot
    GET  /jobs/<id>              one job snapshot
    GET  /jobs/<id>/events       events (``?since=N`` for increments)
    GET  /jobs/<id>/stream       NDJSON event stream until terminal
    POST /jobs/<id>/cancel       cancel (cooperative when running)
    POST /run                    submit + wait; ``?stream=1`` for NDJSON

Errors: 400 for malformed JSON or schema violations (body carries
``{"error": ...}`` naming the offending key), 404 for unknown jobs or
paths, 405 for wrong methods, 413 for oversized bodies.  A client that
disconnects mid-stream only ends its own response — the job keeps
running and stays pollable.

Connections are ``HTTP/1.1`` and persistent: a JSON response carries
``Content-Length``, so one client connection (one server thread)
serves many requests.  A response sent before the request body was
read (413, a bad ``Content-Length``, a wrong method or path) closes
the connection, so the unread body is never parsed as a request.  The
server first ends its side of the connection and discards what the
client is still sending, up to :data:`LINGER_BYTES` and
:data:`LINGER_SECONDS`, so a client busy sending a large body gets the
answer instead of a reset.
Streaming responses are newline-delimited JSON with ``Connection:
close`` (body framed by connection end — no chunked encoding to
parse), one event object per line, terminated by an ``{"event":
"end", "job": {...}}`` line carrying the final snapshot.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO
from urllib.parse import parse_qs, urlsplit

from .service import SweepService

__all__ = ["MAX_BODY_BYTES", "SweepHTTPServer", "make_server", "serve_http"]

#: Reject request bodies larger than this (a scenario spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: After an answer sent before the body was read, discard at most this
#: many bytes of the body, for at most this many seconds, then close.
LINGER_BYTES = 16 << 20
LINGER_SECONDS = 2.0


class SweepHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SweepService`.

    One thread serves one connection, and each request on it is one
    :meth:`finish_request` call with its own handler.  The wait for a
    request's first byte happens between those calls, so an idle
    keep-alive connection adds nothing to any request's time.

    :meth:`server_close` also ends every open connection: a thread
    waiting for its next request sees end of input and exits, and a
    busy one finishes its response first.  A request that still
    arrives on such a connection is dropped unanswered, which a client
    sees as the connection closing.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: SweepService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._lock = threading.Lock()
        # Each open connection's buffered reader: it outlives the
        # per-request handlers, so bytes read ahead are never lost.
        self._readers: dict[socket.socket, BinaryIO] = {}
        self._closed = False

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        # A response is one send unless it outgrows the write buffer or
        # streams; without TCP_NODELAY a later send of the same response
        # can wait for the client's delayed ACK (~40 ms).
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        reader = request.makefile("rb")
        with self._lock:
            self._readers[request] = reader
            if self._closed:
                _end_input(request)
        try:
            while reader.peek(1) and self.finish_request(request, client_address):
                pass
        except ConnectionError:
            pass  # the client reset the connection
        except Exception:  # noqa: BLE001 - socketserver's own policy
            self.handle_error(request, client_address)
        finally:
            with self._lock:
                del self._readers[request]
            reader.close()
            self.shutdown_request(request)

    def finish_request(self, request: Any, client_address: Any) -> bool:
        """Answer one request; False once the connection must close."""
        handler = self.RequestHandlerClass(request, client_address, self)
        return not handler.close_connection

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            for connection in self._readers:
                _end_input(connection)


def _end_input(connection: socket.socket) -> None:
    """Make the next read on ``connection`` see end of input."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # already gone


class _HandledError(Exception):
    """Internal: carries an HTTP status + message to the error writer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Answers one request (see :class:`SweepHTTPServer`)."""

    protocol_version = "HTTP/1.1"
    server: SweepHTTPServer
    _unread_body = False  # until _dispatch sees the request's headers

    # -- plumbing ------------------------------------------------------

    def setup(self) -> None:
        self.connection = self.request
        self.rfile = self.server._readers[self.request]
        self.wfile = self.request.makefile("wb")

    def handle(self) -> None:
        self.close_connection = True
        self.handle_one_request()

    def finish(self) -> None:
        self.wfile.close()  # sends what is buffered; the reader stays
        if self._unread_body:
            self._discard_body()

    def _discard_body(self) -> None:
        """End output, then read and drop the body the client sends.

        Closing a socket with unread input resets the connection, and
        a reset can reach the client before it reads the answer.
        """
        deadline = time.monotonic() + LINGER_SECONDS
        budget = LINGER_BYTES
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while budget > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self.connection.settimeout(left)
                chunk = self.rfile.read1(min(budget, 1 << 16))
                if not chunk:
                    break
                budget -= len(chunk)
        except OSError:
            pass  # timed out, or the client is gone

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # requests are accounted in /stats, not stderr

    @property
    def service(self) -> SweepService:
        return self.server.service

    def parse_request(self) -> bool:
        if self.server._closed:
            self.close_connection = True
            return False
        return super().parse_request()

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._unread_body:
            # The body's bytes are still on the connection: reading the
            # next request from there would parse them as one.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _HandledError(400, f"bad Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _HandledError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        self._unread_body = False
        if not raw:
            raise _HandledError(400, "request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _HandledError(400, f"request body is not valid JSON: {exc}")

    def _stream_job(self, job: Any) -> None:
        """NDJSON: every event as it happens, then the final snapshot.

        The body is framed by connection end, so the connection closes.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        seq = 0
        try:
            while True:
                for event in job.events_since(seq):
                    seq = event["seq"] + 1
                    self.wfile.write(
                        (json.dumps(event) + "\n").encode("utf-8")
                    )
                self.wfile.flush()
                if job.done:
                    break
                job.wait(0.1)
            self.wfile.write(
                (json.dumps({"event": "end", "job": job.snapshot()}) + "\n")
                .encode("utf-8")
            )
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream.  Its choice — the job keeps
            # running on the worker thread and stays pollable.
            self.close_connection = True

    # -- routing -------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        # Until _read_json consumes it, any body counts as unread; a
        # malformed Content-Length or a chunked body counts too.
        self._unread_body = (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0").strip() != "0"
        )
        t0 = time.perf_counter()
        endpoint = f"{method} /{parts[0] if parts else ''}"
        error = False
        try:
            self._route(method, parts, query)
        except _HandledError as exc:
            error = True
            self._send_json({"error": str(exc)}, status=exc.status)
        except (BrokenPipeError, ConnectionResetError):
            error = True
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - handler must answer
            error = True
            try:
                self._send_json(
                    {"error": f"{type(exc).__name__}: {exc}"}, status=500
                )
            except OSError:
                self.close_connection = True
        finally:
            self.service.record_request(
                endpoint, (time.perf_counter() - t0) * 1000.0, error=error
            )

    def _route(
        self, method: str, parts: list[str], query: dict[str, list[str]]
    ) -> None:
        service = self.service
        if parts == ["health"]:
            self._need(method, "GET")
            self._send_json({"status": "ok"})
        elif parts == ["stats"]:
            self._need(method, "GET")
            self._send_json(service.stats())
        elif parts == ["run"]:
            self._need(method, "POST")
            body = self._read_json()
            try:
                if query.get("stream", ["0"])[0] in ("1", "true"):
                    job, _ = service.submit(body)
                    self._stream_job(job)
                else:
                    timeout = float(query.get("timeout", ["0"])[0]) or None
                    job = service.run(body, timeout=timeout)
                    self._send_json(job.snapshot())
            except ValueError as exc:  # ServiceError and bad floats
                raise _HandledError(400, str(exc))
            except TimeoutError as exc:
                raise _HandledError(504, str(exc))
        elif parts == ["jobs"]:
            if method == "GET":
                self._send_json(
                    {"jobs": [job.snapshot() for job in service.jobs()]}
                )
            elif method == "POST":
                body = self._read_json()
                try:
                    job, created = service.submit(body)
                except ValueError as exc:
                    raise _HandledError(400, str(exc))
                snap = job.snapshot()
                snap["created_now"] = created
                self._send_json(snap, status=202 if created else 200)
            else:
                raise _HandledError(405, f"method {method} not allowed")
        elif len(parts) >= 2 and parts[0] == "jobs":
            job = service.job(parts[1])
            if job is None:
                raise _HandledError(404, f"no such job {parts[1]!r}")
            rest = parts[2:]
            if not rest:
                self._need(method, "GET")
                self._send_json(job.snapshot())
            elif rest == ["events"]:
                self._need(method, "GET")
                try:
                    since = int(query.get("since", ["0"])[0])
                except ValueError:
                    raise _HandledError(400, "'since' must be an integer")
                self._send_json(
                    {
                        "id": job.id,
                        "state": job.state,
                        "events": job.events_since(since),
                    }
                )
            elif rest == ["stream"]:
                self._need(method, "GET")
                self._stream_job(job)
            elif rest == ["cancel"]:
                self._need(method, "POST")
                service.cancel(job.id)
                self._send_json(job.snapshot())
            else:
                raise _HandledError(404, f"no such path {self.path!r}")
        else:
            raise _HandledError(404, f"no such path {self.path!r}")

    def _need(self, method: str, expected: str) -> None:
        if method != expected:
            raise _HandledError(
                405, f"method {method} not allowed (use {expected})"
            )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def make_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> SweepHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral one)."""
    return SweepHTTPServer((host, port), service)


def serve_http(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> tuple[SweepHTTPServer, threading.Thread]:
    """Start a server on a daemon thread; returns ``(server, thread)``.

    The caller owns shutdown: ``server.shutdown()`` then
    ``service.close()``.  Read the bound port off
    ``server.server_address`` (useful with ``port=0``).
    """
    server = make_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="sweep-http", daemon=True
    )
    thread.start()
    return server, thread
