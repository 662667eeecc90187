"""Open-loop load generator with its own minimal HTTP/1.1 client.

The benchmark does not use ``repro.service.ServiceClient``: a change to
the program's client must not move the server's numbers.  One process
sends with at most ``threads`` threads, each owning one keep-alive
connection.  Request ``i`` is due at ``t0 + i / rate``; its latency runs
from that due time to the last byte of the answer, so a stall also
charges the requests queued behind it.  Nothing is retried: a transport
error or a non-200 answer is a failed attempt.  A loop asks
``payload(i)`` for the body of request ``i`` when it takes it, so a timed
loop can send as many requests as the server can answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


class HttpConn:
    """One keep-alive HTTP/1.1 connection (Content-Length framing only)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.sock: Optional[socket.socket] = None
        self.buf = b""

    def _connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port),
                                             timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request, return ``(status, body)``; raises OSError."""
        if self.sock is None:
            self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            self.sock.sendall(head + body)
            return self._read_response()
        except OSError:
            self.close()
            raise

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self.buf += chunk

    def _read_response(self) -> Tuple[int, bytes]:
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        keep = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                keep = value.strip().lower() != "close"
        while len(self.buf) < length:
            self._recv()
        body, self.buf = self.buf[:length], self.buf[length:]
        if not keep:
            self.close()
        return status, body


@dataclass
class Sample:
    """One attempted request of an open loop (monotonic seconds)."""

    index: int
    due: float
    free: float  # when a connection became free to send it
    sent: float
    done: float
    status: int  # 0 on a transport error
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def conn_wait(self) -> float:
        """Time the request waited for a free connection."""
        return max(0.0, self.free - self.due)

    @property
    def lag(self) -> float:
        """How late the generator sent a request it was free to send."""
        return self.sent - max(self.due, self.free)


#: ``payload(i)``: the body of request ``i`` of a loop
Payload = Callable[[int], bytes]


def _run_threads(host: str, port: int, threads: int, drive) -> None:
    """Run ``drive(conn)`` on ``threads`` threads, one connection each."""
    conns = [HttpConn(host, port) for _ in range(threads)]
    workers = [threading.Thread(target=drive, args=(c,)) for c in conns]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for c in conns:
        c.close()


def open_loop(host: str, port: int, payload: Payload, count: int,
              rate: float, threads: int) -> List[Sample]:
    """Send requests ``0 .. count-1``, request ``i`` at ``t0 + i / rate``;
    one Sample per request, in index order."""
    samples: List[Optional[Sample]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def drive(conn: HttpConn) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= count:
                return
            body = payload(i)
            due = t0 + i / rate
            free = time.perf_counter()
            if free < due:
                time.sleep(due - free)
            sent = time.perf_counter()
            status, answer = _send(conn, body)
            samples[i] = Sample(i, due, free, sent, time.perf_counter(),
                                status, answer)

    _run_threads(host, port, threads, drive)
    return [s for s in samples if s is not None]


def closed_loop(host: str, port: int, payload: Payload, threads: int,
                seconds: float = float("inf"),
                limit: Optional[int] = None) -> List[Sample]:
    """Keep ``threads`` connections busy back to back.

    Sends requests ``0, 1, 2, ...`` until ``seconds`` have passed or
    ``limit`` requests were taken.  The completion rate of a timed loop
    is the service's capacity for the client.  Samples are in index
    order.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    stop_at = time.perf_counter() + seconds

    def drive(conn: HttpConn) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if limit is not None and i >= limit:
                return
            body = payload(i)
            sent = time.perf_counter()
            status, answer = _send(conn, body)
            sample = Sample(i, sent, sent, sent, time.perf_counter(),
                            status, answer)
            with lock:
                samples.append(sample)

    _run_threads(host, port, threads, drive)
    return sorted(samples, key=lambda s: s.index)


def _send(conn: HttpConn, body: bytes) -> Tuple[int, bytes]:
    """One POST /route; status 0 on a transport error (no retry)."""
    try:
        return conn.request("POST", "/route", body)
    except (OSError, ValueError, IndexError):
        return 0, b""


def get_json(host: str, port: int, path: str) -> dict:
    conn = HttpConn(host, port, timeout=10.0)
    try:
        status, body = conn.request("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise OSError(f"GET {path} answered {status}")
    return json.loads(body)
