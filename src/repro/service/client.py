"""Resilient blocking client for the routing service.

Stdlib-only (raw sockets), over TCP or a unix socket.  This is what the
``repro route --server/--socket`` remote mode, the CI smoke jobs and
the E-SOAK bench use.  Two resilience behaviours on top of the old
one-shot client:

* **Keep-alive** — responses are read by ``Content-Length`` (never
  to-EOF), so the connection can be reused across requests; the client
  holds it open until the server answers ``Connection: close`` or the
  transport fails.  A connection cut mid-body raises
  :class:`~repro.service.resilience.TruncatedResponseError` instead of
  feeding a partial payload to the JSON decoder.
* **Seeded retry** — connection errors, truncated responses and HTTP
  429/503/504 are retried on a deterministic exponential-backoff-with-
  jitter schedule (:class:`~repro.service.resilience.RetryPolicy`),
  honouring a numeric ``Retry-After`` hint when the server sends one.
  Retrying a ``/route`` POST is safe: the handler is a pure function of
  the request document, so a replay returns the same bytes.
  ``retry=None`` restores strict one-shot behaviour.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.service.resilience import (
    RETRYABLE_STATUSES,
    RetryPolicy,
    TruncatedResponseError,
    parse_retry_after,
)
from repro.service.server import DEFAULT_PORT
from repro.utils.validation import ReproError

DEFAULT_HOST = "127.0.0.1"

#: the schedule ``wait_ready`` polls startup on (long, patient tail)
READY_POLICY = RetryPolicy(
    attempts=100, base=0.05, multiplier=1.2, max_delay=0.5, jitter=0.2
)


class _Conn:
    """The keep-alive connection of a :class:`ServiceClient`."""

    __slots__ = ("sock", "rfile", "lock")

    def __init__(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.rfile = None
        self.lock = threading.Lock()

    def drop(self) -> None:
        if self.rfile is not None:
            try:
                self.rfile.close()
            except OSError:
                pass
            self.rfile = None
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None


class ServiceClient:
    """One routing-service endpoint (TCP host/port or a unix socket).

    Parameters
    ----------
    retry:
        The :class:`RetryPolicy` for transient failures (connection
        errors, truncated responses, HTTP 429/503/504).  ``None``
        disables retries — every failure surfaces immediately.

    The client holds one keep-alive connection.  Concurrent callers are
    safe but take turns on it; give each thread its own client to send
    requests in parallel.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        socket_path: Optional[str] = None,
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = RetryPolicy(),
    ):
        self.host = host
        self.port = int(port)
        self.socket_path = socket_path
        self.timeout = float(timeout)
        self.retry = retry
        self._conn = _Conn()
        #: connections opened over this client's lifetime (observability:
        #: keep-alive reuse means this stays far below the request count)
        self.connections_opened = 0

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self.connections_opened += 1
        return sock

    def close(self) -> None:
        """Drop the kept-alive connection (reopened on next use)."""
        self._conn.drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request over the kept-alive connection → (status, headers,
        payload).  Raises ``OSError`` / ``TruncatedResponseError`` on
        transport trouble (the failed connection is dropped first); the
        caller decides whether to retry."""
        conn = self._conn
        with conn.lock:
            try:
                return self._exchange(conn, method, path, body)
            except (TruncatedResponseError, OSError):
                conn.drop()  # a fresh connection for the next try
                raise

    def _exchange(
        self, conn: _Conn, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        if conn.sock is None:
            conn.sock = self._connect()
            conn.rfile = conn.sock.makefile("rb")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: repro\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        conn.sock.sendall(head + body)
        status_line = conn.rfile.readline()
        if not status_line:
            raise TruncatedResponseError(
                "connection closed before any response arrived"
            )
        parts = status_line.split()
        if len(parts) < 2:
            raise ReproError("malformed response from the routing service")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = conn.rfile.readline()
            if not line:
                raise TruncatedResponseError(
                    "connection closed inside the response headers"
                )
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ReproError(
                "routing service sent a bad Content-Length header"
            ) from None
        payload = conn.rfile.read(length) if length else b""
        if len(payload) != length:
            raise TruncatedResponseError(
                f"response truncated: got {len(payload)} of {length} "
                "advertised bytes"
            )
        if headers.get("connection", "keep-alive").lower() == "close":
            conn.drop()
        return status, headers, payload

    def _request(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = b"" if doc is None else json.dumps(doc).encode()
        delays = iter(self.retry.delays() if self.retry is not None else ())
        attempt = 0
        while True:
            attempt += 1
            retry_after: Optional[float] = None
            try:
                status, headers, payload = self._request_once(
                    method, path, body
                )
            except (TruncatedResponseError, OSError) as exc:
                # the failed connection was already dropped
                failure: Exception = (
                    exc
                    if isinstance(exc, ReproError)
                    else ReproError(
                        f"cannot reach the routing service: {exc}"
                    )
                )
            else:
                if status not in RETRYABLE_STATUSES:
                    return self._parse_body(status, payload)
                retry_after = parse_retry_after(headers.get("retry-after"))
                failure = ReproError(
                    f"routing service error (HTTP {status}): "
                    f"{self._error_of(payload)}"
                )
            delay = next(delays, None)
            if delay is None:
                raise failure
            time.sleep(retry_after if retry_after is not None else delay)

    @staticmethod
    def _error_of(payload: bytes) -> str:
        try:
            doc = json.loads(payload.decode("utf-8"))
        except ValueError:
            return "unknown error"
        return doc.get("error", "unknown error") if isinstance(doc, dict) \
            else "unknown error"

    @staticmethod
    def _parse_body(status: int, payload: bytes) -> Dict[str, Any]:
        try:
            rbody = json.loads(payload.decode("utf-8")) if payload else {}
        except ValueError:
            raise ReproError(
                "routing service returned a non-JSON body "
                f"(HTTP {status})"
            ) from None
        if status != 200 or not rbody.get("ok", False):
            raise ReproError(
                f"routing service error (HTTP {status}): "
                f"{rbody.get('error', 'unknown error')}"
            )
        return rbody

    # ------------------------------------------------------------------
    def route(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a request document; returns the response document."""
        return self._request("POST", "/route", doc)

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document (raises when unreachable)."""
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        """The server's ``/stats`` counters."""
        return self._request("GET", "/stats")

    def wait_ready(
        self,
        *,
        attempts: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> Dict[str, Any]:
        """Poll ``/healthz`` until the server answers (startup races).

        Polls on the :data:`READY_POLICY` backoff schedule (override
        with ``policy``; ``attempts`` caps the tries of either).
        """
        schedule = READY_POLICY if policy is None else policy
        if attempts is not None:
            schedule = RetryPolicy(
                attempts=attempts,
                base=schedule.base,
                multiplier=schedule.multiplier,
                max_delay=schedule.max_delay,
                jitter=schedule.jitter,
                seed=schedule.seed,
            )
        last: Exception = ReproError("service never polled")
        delays = iter(schedule.delays())
        while True:
            try:
                return self.health()
            except (OSError, ReproError) as exc:
                last = exc
                self.close()
            delay = next(delays, None)
            if delay is None:
                break
            time.sleep(delay)
        raise ReproError(f"routing service did not become ready: {last}")
