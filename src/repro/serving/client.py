"""A small ``http.client`` client for the sweep-serving HTTP API.

This is what ``repro.cli query`` is built on, and what CI uses to talk
to a server without curl.  It speaks all three request modes:

* ``sync`` — ``POST /run`` and block until the final job snapshot;
* ``poll`` — ``POST /jobs`` then poll ``/jobs/<id>/events`` until the
  job is terminal (the shape a dashboard would use);
* ``stream`` — ``POST /run?stream=1`` and read NDJSON events as the
  job produces them.

All three return the same final job snapshot, and ``on_event`` (when
given) sees every event exactly once in ``seq`` order in the poll and
stream modes.

Every mode goes through one path: each thread keeps one persistent
``HTTPConnection`` per server ``host:port`` and sends its requests on
it, so a closed-loop client pays for connection set-up once.  A
stream response closes its connection, and the next request opens a
fresh one.  When a reused connection fails before any response byte
arrives (the server restarted, or closed the idle connection), the
request is sent once more on a fresh connection.  Every other failure
surfaces as it happens; an error status raises :class:`ServerError`
carrying the server's message.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable
from typing import Any, TypeVar
from urllib.parse import urlsplit

__all__ = ["ServerError", "fetch_json", "fetch_stats", "query_server"]

QUERY_MODES = ("sync", "poll", "stream")

T = TypeVar("T")

#: How a reused connection that the server has closed fails before the
#: response starts: the one case a request is sent again.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)

_local = threading.local()


class ServerError(RuntimeError):
    """The server answered with an error status; carries its message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"server returned {status}: {message}")
        self.status = status


def _connection(netloc: str, timeout: float) -> http.client.HTTPConnection:
    """This thread's connection to ``netloc``, made on first use."""
    pool = _local.__dict__.setdefault("connections", {})
    conn = pool.get(netloc)
    if conn is None:
        conn = pool[netloc] = http.client.HTTPConnection(netloc)
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    return conn


def _response(
    conn: http.client.HTTPConnection, method: str, target: str,
    data: bytes | None, headers: dict[str, str],
) -> http.client.HTTPResponse:
    """Send one request; once more on a fresh connection if a reused
    one turns out closed."""
    reused = conn.sock is not None
    try:
        conn.request(method, target, data, headers)
        return conn.getresponse()
    except _STALE:
        if not reused:
            raise
    conn.close()
    conn.request(method, target, data, headers)
    return conn.getresponse()


def _exchange(
    server: str, path: str, body: Any | None, timeout: float,
    read: Callable[[http.client.HTTPResponse], T],
) -> T:
    """One request to ``server``: GET, or POST of ``body`` as JSON.

    ``read`` consumes a success response.  An error status raises
    :class:`ServerError` (its body read, the connection kept); any
    other failure closes the connection and propagates.
    """
    url = urlsplit(server)
    if url.scheme != "http" or not url.netloc:
        raise ValueError(
            f"server must be an http://HOST:PORT URL, got {server!r}"
        )
    target = url.path.rstrip("/") + path
    if body is None:
        method, data, headers = "GET", None, {}
    else:
        method = "POST"
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
    conn = _connection(url.netloc, timeout)
    try:
        resp = _response(conn, method, target, data, headers)
        if 200 <= resp.status < 300:
            return read(resp)
        detail = resp.read().decode("utf-8", "replace")
    except BaseException:
        conn.close()
        raise
    try:
        detail = json.loads(detail)["error"]
    except (ValueError, KeyError, TypeError):
        pass
    raise ServerError(resp.status, detail)


def _request(
    server: str, path: str, body: Any | None = None, timeout: float = 60.0
) -> Any:
    return _exchange(
        server, path, body, timeout, lambda resp: json.loads(resp.read())
    )


def fetch_json(server: str, path: str, timeout: float = 60.0) -> Any:
    """GET ``path`` from ``server`` and decode the JSON body."""
    return _request(server, path, timeout=timeout)


def fetch_stats(server: str, timeout: float = 60.0) -> dict[str, Any]:
    """The server's ``/stats`` payload."""
    return _request(server, "/stats", timeout=timeout)


def query_server(
    server: str,
    request: Any,
    mode: str = "sync",
    timeout: float = 600.0,
    on_event: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Run one sweep request against ``server``; returns the job snapshot.

    ``server`` is a base URL (``http://host:port``); ``request`` is the
    JSON request body (``{"scenario": ..., "overrides": ..., "smoke":
    ...}``).  Schema violations surface as :class:`ServerError` with
    the server's message (which names the offending key).
    """
    if mode not in QUERY_MODES:
        raise ValueError(f"mode must be one of {QUERY_MODES}, got {mode!r}")
    if mode == "sync":
        return _request(
            server, f"/run?timeout={timeout:g}", request, timeout=timeout
        )
    if mode == "poll":
        return _poll(server, request, timeout, on_event)
    return _stream(server, request, timeout, on_event)


def _poll(
    server: str, request: Any, timeout: float,
    on_event: Callable[[dict[str, Any]], None] | None,
) -> dict[str, Any]:
    job = _request(server, "/jobs", request, timeout=timeout)
    deadline = time.monotonic() + timeout
    seq = 0
    while True:
        page = _request(
            server, f"/jobs/{job['id']}/events?since={seq}", timeout=timeout
        )
        for event in page["events"]:
            seq = event["seq"] + 1
            if on_event is not None:
                on_event(event)
        if page["state"] in ("done", "failed", "cancelled"):
            return _request(server, f"/jobs/{job['id']}", timeout=timeout)
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"job {job['id']} still {page['state']} after {timeout:g}s"
            )
        time.sleep(0.05)


def _stream(
    server: str, request: Any, timeout: float,
    on_event: Callable[[dict[str, Any]], None] | None,
) -> dict[str, Any]:
    def read(resp: http.client.HTTPResponse) -> dict[str, Any]:
        with resp:
            for line in resp:
                event = json.loads(line)
                if event.get("event") == "end":
                    return event["job"]
                if on_event is not None:
                    on_event(event)
        raise ServerError(502, "stream ended without a final job snapshot")

    return _exchange(server, "/run?stream=1", request, timeout, read)
