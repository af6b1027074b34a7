"""Multi-host execution: a socket worker protocol + chunk dispatcher.

The chunk seam of :mod:`repro.runtime` is host-agnostic — tasks
are pure picklable data and seeds travel as values inside them — so
chunks can run on any machine that can import :mod:`repro`.  This
module supplies the thin transport:

* :func:`serve_worker` — the worker side (``python -m repro.cli worker
  --serve PORT``).  It listens on a TCP port, accepts a dispatcher
  connection, evaluates the pickled task chunks it receives and
  streams each chunk's results back, tagged with the chunk id so the
  dispatcher can reassemble them in order.
* :class:`SocketBackend` — the dispatcher side, a
  :class:`~repro.runtime.backend.Backend` that connects to one or more
  workers (``host:port`` each), load-balances chunks across them
  (each connection pulls the next pending chunk as soon as it finishes
  the last — faster hosts simply take more chunks), and **re-queues**
  the in-flight chunk of any worker whose connection drops, so a lost
  host degrades capacity instead of the run.

Wire format
-----------
Length-prefixed pickle frames: 8 bytes big-endian payload length, then
the pickled message.  Messages are tuples ``(kind, *payload)``:

====================  ==========================  ======================
message               direction                   payload
====================  ==========================  ======================
``("hello", v)``      both, once after connect    protocol version
``("chunk", id,       dispatcher -> worker        module-level callable,
fn, start, items)``                               global start index,
                                                  item list
``("result", id,      worker -> dispatcher        per-item results, in
values)``                                         item order
``("error", id,       worker -> dispatcher        the raised
exc)``                                            :class:`TaskError`
====================  ==========================  ======================

A session ends when the dispatcher closes its end (EOF); the worker
then goes back to ``accept`` for the next dispatcher.

Determinism is inherited, not negotiated: chunk results are keyed by
chunk id and reassembled in submission order, and seeds are data inside
the items, so a socket run is bit-identical to
:class:`~repro.runtime.backend.SerialBackend` whatever the host count,
scheduling, or drop pattern.

.. warning::
   The protocol is **pickle over TCP with no authentication** — the
   same trust model as :mod:`multiprocessing` managers.  Only serve
   workers on localhost or inside a trusted cluster network.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from collections.abc import Callable, Sequence
from queue import Empty, Queue
from typing import Any

from .backend import Backend, Chunk
from .executor import TaskError, _run_chunk

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ConnectionClosed",
    "WorkerPoolError",
    "send_frame",
    "recv_frame",
    "parse_address",
    "serve_worker",
    "SocketBackend",
]

#: Bumped on any wire-format change; both ends refuse a mismatch.
PROTOCOL_VERSION = 1

_LENGTH = struct.Struct(">Q")


class ProtocolError(RuntimeError):
    """The peer sent a frame the protocol does not allow."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF mid-protocol)."""


class WorkerPoolError(RuntimeError):
    """Chunks remain but every connected worker has dropped."""


def send_frame(sock: socket.socket, message: Any) -> None:
    """Send one length-prefixed pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        data = sock.recv(min(remaining, 1 << 20))
        if not data:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one length-prefixed pickled message."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    return pickle.loads(_recv_exact(sock, length))


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` worker address (host defaults to localhost).

    >>> parse_address("10.0.0.7:9000")
    ('10.0.0.7', 9000)
    >>> parse_address(":9000")
    ('127.0.0.1', 9000)
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address must be host:port, got {text!r}"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(f"port must be in 1..65535, got {port}")
    return (host or "127.0.0.1", port)


def _handshake(sock: socket.socket) -> None:
    """Exchange hello frames; raise on a version/protocol mismatch."""
    send_frame(sock, ("hello", PROTOCOL_VERSION))
    message = recv_frame(sock)
    if (
        not isinstance(message, tuple)
        or len(message) != 2
        or message[0] != "hello"
    ):
        raise ProtocolError(f"expected hello frame, got {message!r}")
    if message[1] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {message[1]}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )


def _serve_connection(conn: socket.socket) -> int:
    """One dispatcher session: evaluate chunks until bye/EOF."""
    _handshake(conn)
    served = 0
    while True:
        try:
            message = recv_frame(conn)
        except ConnectionClosed:
            return served
        if not isinstance(message, tuple) or not message:
            raise ProtocolError(f"malformed frame: {message!r}")
        kind = message[0]
        if kind != "chunk":
            raise ProtocolError(f"unexpected frame kind {kind!r}")
        _, chunk_id, fn, start, items = message
        try:
            values = _run_chunk(fn, start, items)
        except TaskError as exc:
            send_frame(conn, ("error", chunk_id, exc))
        else:
            send_frame(conn, ("result", chunk_id, values))
            served += 1


def _announce_stdout(line: str) -> None:
    print(line, flush=True)  # scripts read the port through a pipe


def serve_worker(
    port: int,
    host: str = "127.0.0.1",
    *,
    max_sessions: int | None = None,
    announce: Callable[[str], None] | None = _announce_stdout,
) -> int:
    """Run a worker: accept dispatcher sessions and evaluate chunks.

    Binds ``host:port`` (``port=0`` picks a free port) and announces
    the bound address as ``repro worker listening on HOST:PORT`` — the
    line scripts and tests parse to learn an ephemeral port.  Each
    accepted connection is served to completion before the next is
    accepted; ``max_sessions`` bounds how many sessions to serve
    (``None`` serves forever).  Returns the number of chunks served.

    The evaluated callables arrive by pickle *reference*, so the worker
    process must be able to import them — run workers from a checkout
    with the same ``repro`` version as the dispatcher.
    """
    if max_sessions is not None and max_sessions < 1:
        raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
    served = 0
    with socket.create_server((host, port), backlog=8) as server:
        bound_host, bound_port = server.getsockname()[:2]
        if announce is not None:
            announce(f"repro worker listening on {bound_host}:{bound_port}")
        sessions = 0
        while max_sessions is None or sessions < max_sessions:
            conn, _addr = server.accept()
            sessions += 1
            with conn:
                try:
                    served += _serve_connection(conn)
                except Exception:  # noqa: BLE001
                    # One misbehaving client (dispatcher vanished,
                    # version mismatch, garbage frames, a chunk whose
                    # module this worker can't import) must not take
                    # the worker away from every other dispatcher;
                    # drop the session and re-accept.
                    continue
    return served


class _WorkerLink:
    """Dispatcher-side state for one connected worker."""

    def __init__(self, address: tuple[str, int], sock: socket.socket) -> None:
        self.address = address
        self.sock = sock

    def close(self) -> None:
        # shutdown() first: it unblocks a dispatcher thread parked in
        # recv on this socket (abort path) and sends FIN, which is the
        # protocol's session end.  Never write frames from here — the
        # owning thread may be mid-send.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketBackend(Backend):
    """Dispatch chunks to remote socket workers, with drop re-queuing.

    Parameters
    ----------
    addresses:
        Worker endpoints — ``"host:port"`` strings (or ``(host, port)``
        tuples), one per ``python -m repro.cli worker --serve PORT``
        process.  To use several cores of one host, start one worker
        process per core (each on its own port) and list them all — a
        single worker serves one dispatcher session at a time.
    connect_timeout:
        Seconds to wait for each TCP connect + handshake (established
        connections then wait on results without a deadline —
        simulation chunks have no natural time bound).  A worker that
        is busy with another dispatcher fails the handshake deadline
        and is simply left out of this run's pool.

    Chunks are pulled from a shared queue by one dispatcher thread per
    worker connection, so load balances by completion speed.  If a
    connection drops mid-chunk, that chunk returns to the queue for the
    surviving workers; the run fails (:class:`WorkerPoolError`) only
    when *no* workers remain.  A remote :class:`TaskError` is re-raised
    in the caller with its global item index intact.
    """

    name = "socket"

    def __init__(
        self,
        addresses: Sequence[str | tuple[str, int]],
        connect_timeout: float = 10.0,
    ) -> None:
        if not addresses:
            raise ValueError("socket backend needs at least one address")
        self.addresses = [
            addr if isinstance(addr, tuple) else parse_address(addr)
            for addr in addresses
        ]
        self.connect_timeout = connect_timeout

    @property
    def parallelism(self) -> int:
        return len(self.addresses)

    def _connect(self) -> list[_WorkerLink]:
        links: list[_WorkerLink] = []
        failures: list[str] = []
        for address in self.addresses:
            sock = None
            try:
                sock = socket.create_connection(
                    address, timeout=self.connect_timeout
                )
                # Handshake under the connect deadline: a worker whose
                # accept queue holds us while it serves another
                # dispatcher would otherwise block this run forever.
                _handshake(sock)
                sock.settimeout(None)
            except (OSError, ProtocolError) as exc:
                if sock is not None:
                    sock.close()
                failures.append(f"{address[0]}:{address[1]}: {exc}")
                continue
            links.append(_WorkerLink(address, sock))
        if not links:
            raise WorkerPoolError(
                "could not connect to any worker: " + "; ".join(failures)
            )
        return links

    def submit_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Chunk]
    ) -> list[list[Any]]:
        chunks = list(chunks)
        if not chunks:
            return []
        links = self._connect()
        pending: Queue[tuple[int, int, Sequence[Any]]] = Queue()
        for chunk_id, (start, items) in enumerate(chunks):
            pending.put((chunk_id, start, items))
        results: list[list[Any] | None] = [None] * len(chunks)
        errors: list[BaseException] = []
        state_lock = threading.Lock()
        remaining = len(chunks)
        alive = len(links)
        done = threading.Event()  # all chunks answered, or fatal error

        def _abort(error: BaseException) -> None:
            with state_lock:
                errors.append(error)
            done.set()

        def _pump(link: _WorkerLink) -> None:
            nonlocal remaining, alive
            try:
                while not done.is_set():
                    try:
                        job = pending.get(timeout=0.05)
                    except Empty:
                        continue
                    chunk_id, start, items = job
                    try:
                        send_frame(
                            link.sock, ("chunk", chunk_id, fn, start, items)
                        )
                        reply = recv_frame(link.sock)
                    except (OSError, ConnectionError):
                        # The link died: hand the in-flight chunk to a
                        # surviving worker and retire this thread.
                        pending.put(job)
                        return
                    except BaseException as exc:  # noqa: BLE001
                        # Not a link failure — e.g. an unpicklable task
                        # item.  Retrying elsewhere can't help; surface
                        # the real cause instead of draining the pool.
                        pending.put(job)
                        _abort(exc)
                        return
                    if (
                        not isinstance(reply, tuple)
                        or len(reply) != 3
                        or reply[0] not in ("result", "error")
                        or reply[1] != chunk_id
                    ):
                        _abort(
                            ProtocolError(
                                f"worker {link.address} answered chunk "
                                f"{chunk_id} with {reply!r}"
                            )
                        )
                        return
                    if reply[0] == "error":
                        _abort(reply[2])
                        return
                    with state_lock:
                        results[chunk_id] = reply[2]
                        remaining -= 1
                        finished = remaining == 0
                    if finished:
                        done.set()
                        return
            finally:
                # Whatever path ended this thread, keep the accounting
                # exact — submit_chunks waits on `done`, and the last
                # thread out must set it or the call would hang.
                with state_lock:
                    alive -= 1
                    lost = alive == 0 and not done.is_set()
                    if lost:
                        errors.append(
                            WorkerPoolError(
                                f"{remaining} chunk(s) unfinished but "
                                f"every worker connection dropped "
                                f"({len(links)} started)"
                            )
                        )
                if lost:
                    done.set()

        threads = [
            threading.Thread(
                target=_pump, args=(link,), name=f"repro-dispatch-{i}"
            )
            for i, link in enumerate(links)
        ]
        for thread in threads:
            thread.start()
        done.wait()
        for link in links:
            link.close()  # unblocks threads still waiting in recv
        for thread in threads:
            thread.join()
        for error in errors:
            raise error
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
