"""The experiment daemon's socket front end.

A thin, threaded TCP layer over :class:`ExperimentScheduler`: one
handler thread per connection, each looping over LDJSON requests (see
:mod:`repro.serve.protocol`).  All experiment logic — admission,
coalescing, pools, journals — lives in the scheduler; this module only
maps wire messages to scheduler calls and exceptions to typed error
responses, so every scheduler behaviour is testable without a socket.

Shutdown is graceful by construction: ``drain`` (the wire op, or
SIGTERM in the ``__main__`` runner) stops admission first, lets the
executor finish and journal everything already queued, and only then
stops accepting connections — a client that made it past admission
always gets its response.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from typing import Any, Dict, Optional

from repro import obs
from repro.serve import protocol
from repro.serve.scheduler import Draining, ExperimentScheduler, Overloaded

__all__ = ["ExperimentServer"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a sequence of request/response message pairs."""

    server: "_TCPServer"

    def handle(self) -> None:
        while True:
            try:
                message = protocol.read_message(
                    self.rfile, max_bytes=self.server.max_frame_bytes)
            except protocol.FrameTooLarge as exc:
                self._respond(protocol.error_response(
                    protocol.ERROR_FRAME_TOO_LARGE, str(exc),
                    limit=self.server.max_frame_bytes,
                ))
                return  # the oversized line is still in the stream
            except protocol.ProtocolError as exc:
                self._respond(protocol.error_response(
                    protocol.ERROR_BAD_REQUEST, str(exc)
                ))
                return  # framing is gone; the stream cannot be resynced
            except OSError:
                return
            if message is None:
                return
            try:
                response = self.server.dispatch(message)
            except protocol.ProtocolError as exc:
                response = protocol.error_response(
                    protocol.ERROR_BAD_REQUEST, str(exc)
                )
            except Overloaded as exc:
                response = protocol.error_response(
                    protocol.ERROR_OVERLOADED, str(exc)
                )
            except Draining as exc:
                response = protocol.error_response(
                    protocol.ERROR_DRAINING, str(exc)
                )
            except Exception as exc:
                response = protocol.error_response(
                    protocol.ERROR_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            if not self._respond(response):
                return

    def _respond(self, response: Dict[str, Any]) -> bool:
        try:
            protocol.write_message(self.wfile, response)
            return True
        except OSError:
            return False  # client went away; its cells still finish


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, scheduler: ExperimentScheduler,
                 max_frame_bytes: Optional[int] = None) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.max_frame_bytes = (protocol.MAX_LINE_BYTES
                                if max_frame_bytes is None
                                else int(max_frame_bytes))
        self.started = time.monotonic()
        self._drain_started = threading.Event()

    # ------------------------------------------------------------------
    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op in protocol._OPS:
            obs.SERVE_REQUESTS.inc(op=op)
        if op == "ping":
            from repro.store.remote import version_salt
            return {
                "ok": True, "op": "ping", "pid": os.getpid(),
                "version": protocol.PROTOCOL_VERSION,
                "max_frame": self.max_frame_bytes,
                "store_version": version_salt(),
            }
        if op == "status":
            status = self.scheduler.status()
            status.update(
                ok=True, op="status", pid=os.getpid(),
                version=protocol.PROTOCOL_VERSION,
            )
            return status
        if op == "metrics":
            # Prometheus text covering this process's registry — store,
            # exec, serve and core families alike, since they
            # all share the process-global registry.
            return {"ok": True, "op": "metrics",
                    "content_type": obs.PROMETHEUS_CONTENT_TYPE,
                    "text": obs.render_prometheus()}
        if op == "drain":
            self.begin_drain()
            return {"ok": True, "op": "drain", "draining": True}
        if op == "matrix":
            started = time.perf_counter()
            try:
                return self._matrix(message)
            finally:
                obs.SERVE_REQUEST_SECONDS.observe(
                    time.perf_counter() - started
                )
        if op in ("store_has", "store_get", "store_put"):
            # Lazy import: the remote subpackage pulls cluster.health,
            # which imports back through serve — fine at dispatch time,
            # a cycle at module import time.
            from repro.store.remote import ops as remote_ops
            artifacts = getattr(self.scheduler, "_artifacts", None)
            store = artifacts.store if artifacts is not None else None
            return remote_ops.handle(store, message)
        raise protocol.ProtocolError(f"unknown op: {op!r}")

    def _matrix(self, message: Dict[str, Any]) -> Dict[str, Any]:
        query = protocol.parse_matrix_query(message)
        ticket = self.scheduler.submit(query)   # Overloaded/Draining here
        cells = []
        for outcome in ticket.wait():
            cell: Dict[str, Any] = protocol.spec_to_wire(outcome.spec)
            cell["status"] = outcome.status
            cell["fingerprint"] = outcome.fp
            if outcome.status == protocol.CELL_OK:
                cell["source"] = outcome.source
                cell["result"] = protocol.encode_result(outcome.result)
            elif outcome.status == protocol.CELL_FAILED:
                cell["error"] = outcome.error
            cells.append(cell)
        complete = all(
            cell["status"] == protocol.CELL_OK for cell in cells
        )
        return {"ok": True, "op": "matrix", "complete": complete,
                "cells": cells}

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admission now; finish queued work; then stop serving.

        Idempotent.  The heavy lifting runs on a helper thread so the
        requesting connection still gets its acknowledgement.
        """
        if self._drain_started.is_set():
            return
        self._drain_started.set()

        def _drain() -> None:
            self.scheduler.drain()
            self.shutdown()

        threading.Thread(target=_drain, name="serve-drain",
                         daemon=True).start()

    @property
    def draining(self) -> bool:
        return self._drain_started.is_set()


class ExperimentServer:
    """A running daemon: scheduler + threaded TCP front end.

    Usable in-process (tests, the perf harness spin one up on an
    ephemeral port in a background thread) or via
    ``python -m repro.serve`` for a real daemon.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Optional[ExperimentScheduler] = None,
        max_frame_bytes: Optional[int] = None,
        **scheduler_kwargs: Any,
    ) -> None:
        self.scheduler = scheduler or ExperimentScheduler(**scheduler_kwargs)
        self._server = _TCPServer((host, port), self.scheduler,
                                  max_frame_bytes=max_frame_bytes)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves an ephemeral port 0."""
        return self._server.server_address[:2]

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve on the calling thread until drained or shut down."""
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()

    def start(self) -> "ExperimentServer":
        """Serve on a background thread (in-process embedding)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="serve-accept", daemon=True,
        )
        self._thread.start()
        return self

    def drain(self) -> None:
        """Graceful stop: no new work, finish the queue, stop serving."""
        self._server.begin_drain()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain and wait for a background :meth:`start` to wind down."""
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout)
        self._server.server_close()

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
