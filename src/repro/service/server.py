"""Long-lived routing service: asyncio front, process-pool compute.

Protocol — JSON over HTTP/1.1, on TCP or a unix socket, with
keep-alive (the server answers ``Connection: keep-alive`` and serves
requests on the same connection until the client closes or asks for
``Connection: close``):

========  ===========  ====================================================
method    path         body
========  ===========  ====================================================
``POST``  ``/route``   a request document (below); returns the response
``GET``   ``/healthz`` liveness: ``{"ok": true, "version": ..., "jobs": N}``
``GET``   ``/stats``   server counters (requests, cache hits, warm/cold,
                       rejected, timeouts, pool_rebuilds, queue gauges, …)
========  ===========  ====================================================

Request document::

    {"problem": <repro/problem@1|2>,          required
     "prev":    <repro/routing@1|2> | null,   previous routing → warm start
     "solver":  "XYI",                        cold-solve heuristic
     "polish":  "anneal" | "descent" | "none",
     "seed":    0,                            polish-burst / cold RNG seed
     "cache":   true}                         per-request cache opt-out

Response (HTTP 200)::

    {"ok": true, "mode": "cold" | "warm", "cache_hit": false,
     "routing": <repro/routing@1|2>, "power": ..., "valid": ...,
     "stats": {"matched": ..., "rerouted": ..., "polish_flips": ..., ...},
     "elapsed_ms": ...}

Malformed or invalid requests answer HTTP 400 with
``{"ok": false, "error": "..."}`` — the server never dies on a bad
request.  Bodies are framed by ``Content-Length`` only; a request the
server cannot frame (``Transfer-Encoding``, a bad or conflicting
length, a head line over the reader's 64 KiB limit) is answered once
(400, 414 or 431) and its connection closed.

Every ``/route`` body is handled by the **pure** module-level
:func:`handle_request_doc` — with ``--jobs 1`` it runs inline on the
event-loop thread (strictly serial service), with more jobs it is
dispatched to a ``ProcessPoolExecutor``; either way the same function
computes the same bytes, so serial and pooled deployments are
bit-identical (``tests/test_service_server.py`` pins this).

Resilience (``tests/test_service_resilience.py``, ``docs/service.md``):

* **Admission control** — at most ``max_inflight`` route requests
  compute at once; up to ``queue_depth`` more wait.  Overflow answers
  HTTP 429 with a ``Retry-After`` hint instead of queueing unboundedly.
* **Deadlines** — header read, body read and compute each run under
  their own timeout; a timed-out compute answers 504 without killing
  the handler loop, a slow-reading connection is dropped.
* **Worker-crash recovery** — a ``BrokenProcessPool`` (e.g. a worker
  killed with ``kill -9``) rebuilds the pool and retries the in-flight
  request once; ``/stats`` counts ``pool_rebuilds``.
* **Graceful shutdown** — :meth:`RoutingServer.drain` stops accepting,
  finishes in-flight work under a deadline, then closes the pool.
* **Fault injection** — a :class:`~repro.service.resilience.FaultPlan`
  (or the ``REPRO_FAULTS`` env hook) scripts worker crashes, compute
  delays and dropped connections at chosen request indices, so every
  recovery path above is exercised deterministically by ordinary tests
  and the E-SOAK chaos bench.

Concurrency (``docs/service.md`` "Concurrency"): a request runs inline
(``jobs=1``) or in the worker pool; ``repro serve --shards N`` runs N
accept-loop processes on one listen port (:mod:`repro.service.prefork`).
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Awaitable, Dict, List, Optional, Tuple, TypeVar

from repro.service.batching import handle_request_doc
from repro.service.resilience import FaultPlan, FaultSpec
from repro.utils.validation import ReproError
from repro.version import __version__

_T = TypeVar("_T")

#: default TCP port of ``repro serve``
DEFAULT_PORT = 8642

#: request-body ceiling (a 64x64 mesh problem with thousands of comms
#: serialises to well under a megabyte)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: admission defaults: at most this many route computes at once …
DEFAULT_MAX_INFLIGHT = 8
#: … with this many more queued before overflow answers 429
DEFAULT_QUEUE_DEPTH = 32

#: deadline defaults (seconds); any of them can be disabled with None
DEFAULT_HEADER_TIMEOUT = 30.0
DEFAULT_BODY_TIMEOUT = 60.0
DEFAULT_COMPUTE_TIMEOUT = 300.0

#: the Retry-After hint sent with 429/503 answers (seconds)
RETRY_AFTER_HINT = 0.1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _DropConnection(Exception):
    """Internal: a scripted ``drop`` fault — abort instead of answering."""


class _LineTooLong(Exception):
    """Internal: a head line over the reader's limit → ``status``, close."""

    def __init__(self, status: int, what: str):
        super().__init__(f"{what} longer than the server accepts")
        self.status = status


def _shutdown_socket(writer: asyncio.StreamWriter) -> None:
    """Force the peer to see EOF *now*, even with forked workers around.

    ``ProcessPoolExecutor`` workers are forked lazily on the first submit,
    so they inherit copies of whatever connection fds were open at that
    moment.  A plain ``close()``/``abort()`` in the parent then only drops
    the parent's fd refcount — the kernel sends no FIN/RST while a worker
    still holds a copy, and a client blocked on ``recv`` hangs until its
    socket timeout.  ``socket.shutdown`` acts on the socket itself rather
    than the fd, so the FIN goes out immediately regardless of inherited
    copies.
    """
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected


def _worker_reset_signals() -> None:
    """Pool-worker initializer: drop fork-inherited signal plumbing.

    A forked worker inherits the serving process's signal wakeup fd and
    Python-level SIGTERM/SIGINT handlers (installed by ``repro serve``
    for graceful drain).  A signal delivered to the *worker* — e.g. the
    executor SIGTERMs surviving siblings while cleaning up after a
    crashed worker — would then run the inherited handler, write to the
    parent's shared wakeup pipe, and spuriously trigger the parent's
    own drain.  Reset both in every fresh worker.
    """
    import signal

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _pool_worker(
    doc: Any,
    cache_dir: Optional[str],
    use_cache: bool,
    fault: Optional[FaultSpec] = None,
) -> Tuple[int, Dict[str, Any]]:
    """Picklable pool entry point (kwargs don't pickle as cleanly).

    A scripted ``crash`` fault kills this worker the way ``kill -9``
    would (``os._exit``); a ``delay`` fault sleeps before computing, in
    the worker, so the server-side compute deadline can observe it.
    """
    if fault is not None:
        if fault.kind == "crash":
            import os

            os._exit(1)
        elif fault.kind == "delay" and fault.seconds > 0:
            time.sleep(fault.seconds)
    return handle_request_doc(doc, cache_dir=cache_dir, use_cache=use_cache)


class RoutingServer:
    """The asyncio service front.

    Parameters
    ----------
    jobs:
        Routing workers.  ``1`` handles requests inline (strictly serial
        service); more spins up a ``ProcessPoolExecutor`` so long solves
        overlap.  Responses are bit-identical either way.
    cache_dir:
        Artifact-store root for the cross-request cache (default:
        ``.repro-cache`` / ``REPRO_CACHE_DIR``).
    use_cache:
        Globally disable the result cache (per-request opt-out exists
        too, via ``"cache": false`` in the document).
    max_inflight / queue_depth:
        Admission control: at most ``max_inflight`` route requests
        compute concurrently, at most ``queue_depth`` more wait; any
        further request answers 429 with a ``Retry-After`` hint.
    header_timeout / body_timeout / compute_timeout:
        Per-phase deadlines in seconds (``None`` disables one).  Slow
        header/body reads drop the connection; a compute overrunning its
        deadline answers 504.  Inline (``jobs=1``) computes cannot be
        preempted mid-solve — the compute deadline needs ``jobs > 1`` to
        interrupt real work (injected delays are interruptible in both
        modes).
    fault_plan:
        A :class:`~repro.service.resilience.FaultPlan` scripting
        worker crashes / compute delays / connection drops by route
        request index (testing and chaos benches; default: no faults).
    verbose:
        Log one structured line per request to stderr.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        header_timeout: Optional[float] = DEFAULT_HEADER_TIMEOUT,
        body_timeout: Optional[float] = DEFAULT_BODY_TIMEOUT,
        compute_timeout: Optional[float] = DEFAULT_COMPUTE_TIMEOUT,
        fault_plan: Optional[FaultPlan] = None,
        verbose: bool = False,
    ):
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ReproError(f"jobs must be an integer >= 1, got {jobs!r}")
        if isinstance(max_inflight, bool) or not isinstance(max_inflight, int) \
                or max_inflight < 1:
            raise ReproError(
                f"max_inflight must be an integer >= 1, got {max_inflight!r}"
            )
        if isinstance(queue_depth, bool) or not isinstance(queue_depth, int) \
                or queue_depth < 0:
            raise ReproError(
                f"queue_depth must be an integer >= 0, got {queue_depth!r}"
            )
        for name, value in (
            ("header_timeout", header_timeout),
            ("body_timeout", body_timeout),
            ("compute_timeout", compute_timeout),
        ):
            if value is not None and not value > 0:
                raise ReproError(f"{name} must be > 0 seconds or None")
        self.jobs = jobs
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.use_cache = bool(use_cache)
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.header_timeout = header_timeout
        self.body_timeout = body_timeout
        self.compute_timeout = compute_timeout
        self.fault_plan = FaultPlan() if fault_plan is None else fault_plan
        self.verbose = bool(verbose)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_gen = 0
        self._sem: Optional[asyncio.Semaphore] = None
        self._waiting = 0  # route requests queued on the semaphore
        self._inflight = 0  # route requests admitted, not yet answered
        self._route_seq = 0  # arrival index driving the fault plan
        self._draining = False
        self.stats: Dict[str, int] = {
            "requests": 0,
            "routed": 0,
            "cache_hits": 0,
            "warm": 0,
            "cold": 0,
            "errors": 0,
            "rejected": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "drops": 0,
            "slow_reads": 0,
            "handler_errors": 0,
        }

    # ------------------------------------------------------------------
    async def start_tcp(self, host: str, port: int) -> asyncio.AbstractServer:
        """Listen on ``host:port``; returns the asyncio server."""
        self._ensure_pool()
        return await asyncio.start_server(self._handle, host, port)

    async def start_unix(self, path: str) -> asyncio.AbstractServer:
        """Listen on a unix socket at ``path``; returns the server."""
        self._ensure_pool()
        return await asyncio.start_unix_server(self._handle, path)

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    async def drain(
        self,
        server: Optional[asyncio.AbstractServer] = None,
        *,
        timeout: float = 10.0,
    ) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Closes ``server`` (when given) so no new connections are
        accepted, answers 503 to requests arriving on already-open
        keep-alive connections, waits up to ``timeout`` seconds for
        admitted route requests to finish, then shuts the pool down.
        Returns True when the service drained cleanly before the
        deadline, False when in-flight work was abandoned.
        """
        self._draining = True
        if server is not None:
            server.close()
            await server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + float(timeout)
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        drained = self._inflight == 0
        # when the deadline was missed the pool may hold a stuck solve:
        # abandon it instead of blocking shutdown on it
        self.close(wait=drained)
        return drained

    def _ensure_pool(self) -> None:
        if self.jobs > 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_reset_signals
            )
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.max_inflight)

    def _rebuild_pool(self, gen: int) -> None:
        """Replace a broken pool (once per breakage, however many see it)."""
        if gen != self._pool_gen:
            return  # a concurrent handler already rebuilt this generation
        self._pool_gen += 1
        self.stats["pool_rebuilds"] += 1
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_reset_signals
            )

    # ------------------------------------------------------------------
    async def _dispatch(
        self, doc: Any, fault: Optional[FaultSpec] = None
    ) -> Tuple[int, Dict[str, Any]]:
        if self._pool is None:
            if fault is not None and fault.kind == "crash":
                # inline mode has no worker to kill: surface the same
                # failure the pool path would, so recovery still runs
                raise BrokenProcessPool("injected worker crash (inline)")
            if fault is not None and fault.kind == "delay":
                await asyncio.sleep(fault.seconds)
            return handle_request_doc(
                doc, cache_dir=self.cache_dir, use_cache=self.use_cache
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, _pool_worker, doc, self.cache_dir, self.use_cache,
            fault,
        )

    async def _dispatch_recovering(
        self, doc: Any, fault: Optional[FaultSpec]
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch, rebuilding the pool and retrying once on a crash."""
        for attempt in (0, 1):
            gen = self._pool_gen
            try:
                return await self._dispatch(doc, fault if attempt == 0 else None)
            except BrokenExecutor:
                self._rebuild_pool(gen)
        return 503, {
            "ok": False,
            "error": "worker pool broke twice on this request; retry later",
        }

    async def _route(self, doc: Any) -> Tuple[int, Dict[str, Any]]:
        """Admission control + deadline + crash recovery around dispatch."""
        assert self._sem is not None  # _ensure_pool ran at start_*
        if self._sem.locked() and self._waiting >= self.queue_depth:
            self.stats["rejected"] += 1
            return 429, {
                "ok": False,
                "error": (
                    f"server saturated ({self.max_inflight} in flight, "
                    f"{self._waiting} queued); retry after "
                    f"{RETRY_AFTER_HINT:g}s"
                ),
            }
        self._waiting += 1
        try:
            await self._sem.acquire()
        finally:
            self._waiting -= 1
        self._inflight += 1
        try:
            fault = self.fault_plan.take(self._route_seq)
            self._route_seq += 1
            if fault is not None and fault.kind == "drop":
                self.stats["drops"] += 1
                raise _DropConnection()
            coro = self._dispatch_recovering(doc, fault)
            if self.compute_timeout is None:
                return await coro
            try:
                return await asyncio.wait_for(coro, self.compute_timeout)
            except asyncio.TimeoutError:
                self.stats["timeouts"] += 1
                return 504, {
                    "ok": False,
                    "error": (
                        f"compute exceeded the {self.compute_timeout:g}s "
                        "deadline"
                    ),
                }
        finally:
            self._inflight -= 1
            self._sem.release()

    # ------------------------------------------------------------------
    async def _read_phase(
        self, awaitable: Awaitable[_T], timeout: Optional[float]
    ) -> _T:
        if timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, timeout)

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> Tuple[bytes, List[bytes]]:
        """Request line + raw header lines, as one awaitable.

        Grouping the reads lets the whole header phase run under a
        single ``wait_for`` deadline — per-line timers cost a task and
        a timer handle each, which is measurable at saturation.
        ``readline`` raises ``ValueError`` past the reader's limit.
        """
        try:
            line = await reader.readline()
        except ValueError:
            raise _LineTooLong(414, "request line") from None
        if line == b"":  # clean EOF between keep-alive requests
            raise ConnectionResetError("client closed the connection")
        headers: List[bytes] = []
        while True:
            try:
                hline = await reader.readline()
            except ValueError:
                raise _LineTooLong(431, "header line") from None
            if hline in (b"\r\n", b"\n", b""):
                return line, headers
            headers.append(hline)

    def _health_doc(self) -> Dict[str, Any]:
        """The ``/healthz`` body (prefork shards add their identity)."""
        return {"ok": True, "version": __version__, "jobs": self.jobs}

    def _stats_doc(self) -> Dict[str, Any]:
        """The ``/stats`` body (prefork shards aggregate across peers)."""
        return {
            "ok": True,
            **self.stats,
            "inflight": self._inflight,
            "queued": self._waiting,
        }

    def _log(self, method: str, path: str, status: int, body: Dict[str, Any],
             t0: float) -> None:
        if not self.verbose:
            return
        mode = body.get("mode", "-")
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        print(
            f"repro-serve method={method} path={path} status={status} "
            f"mode={mode} cache_hit={int(bool(body.get('cache_hit')))} "
            f"elapsed_ms={elapsed_ms:.1f} queued={self._waiting} "
            f"inflight={self._inflight}",
            file=sys.stderr,
            flush=True,
        )

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while await self._serve_one(reader, writer):
                pass
        except asyncio.CancelledError:  # loop shutdown mid-keep-alive
            pass
        except Exception as exc:  # never kill the accept loop, never hide it
            self.stats["handler_errors"] += 1
            print(
                f"repro-serve handler error: {type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
        finally:
            try:
                _shutdown_socket(writer)
                writer.close()
            except Exception:
                pass

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one request on an open connection.

        Returns True to keep the connection alive for the next request,
        False to close it (client EOF, ``Connection: close``, a read
        deadline, a scripted drop, draining, or a write failure).
        """
        t0 = time.perf_counter()
        keep = True
        try:
            status, body, method, path, keep = await self._respond(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False
        except asyncio.TimeoutError:  # slow header/body read: drop
            self.stats["slow_reads"] += 1
            _shutdown_socket(writer)
            return False
        except _DropConnection:
            _shutdown_socket(writer)
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        except Exception as exc:  # defensive: answer 500, then close (the
            # connection may hold an un-read body after a mid-read failure)
            status, body = 500, {"ok": False, "error": f"internal: {exc}"}
            method = path = "-"
            keep = False
        if status != 200 and status not in (429, 504):
            # failures land in one counter; backpressure rejections and
            # compute timeouts keep their own dedicated counters instead
            self.stats["errors"] += 1
        if self._draining:
            keep = False
        # compact separators: ~10% fewer bytes per response at no cost
        payload = json.dumps(body, separators=(",", ":")).encode()
        extra = ""
        if status in (429, 503):
            extra = f"Retry-After: {RETRY_AFTER_HINT:g}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
        ).encode("ascii")
        writer.write(head + payload)
        try:
            await writer.drain()
        except ConnectionError:
            return False
        self._log(method, path, status, body, t0)
        return keep

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any], str, str, bool]:
        """Read and answer one request → (status, body, method, path, keep).

        Bodies are framed by ``Content-Length`` only: a request with
        ``Transfer-Encoding``, a non-decimal length or conflicting
        lengths is answered once and its connection closed, since the
        next request's start can no longer be found.
        """
        try:
            line, hlines = await self._read_phase(
                self._read_head(reader), self.header_timeout
            )
        except _LineTooLong as exc:
            return exc.status, {"ok": False, "error": str(exc)}, \
                "-", "-", False
        parts = line.decode("ascii", "replace").split()
        if len(parts) < 2:
            return 400, {"ok": False, "error": "malformed request line"}, \
                "-", "-", False
        method, path = parts[0].upper(), parts[1]
        lengths = set()
        keep = True
        for hline in hlines:
            name, _, value = hline.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                # ASCII digits only (int() also takes "_", "+" and
                # non-ASCII digits); a negative length answers 413 below
                digits = value[1:] if value.startswith("-") else value
                if not (digits.isascii() and digits.isdigit()):
                    return 400, {
                        "ok": False,
                        "error": "bad Content-Length header",
                    }, method, path, False
                lengths.add(int(value))
            elif name == "transfer-encoding":
                return 400, {
                    "ok": False,
                    "error": "Transfer-Encoding is not supported; "
                    "frame the body with Content-Length",
                }, method, path, False
            elif name == "connection":
                keep = value.lower() != "close"
        if len(lengths) > 1:
            return 400, {
                "ok": False, "error": "conflicting Content-Length headers",
            }, method, path, False
        length = lengths.pop() if lengths else 0
        if length < 0 or length > MAX_BODY_BYTES:
            return 413, {"ok": False, "error": "request body too large"}, \
                method, path, False
        raw = (
            await self._read_phase(reader.readexactly(length),
                                   self.body_timeout)
            if length
            else b""
        )
        self.stats["requests"] += 1
        if self._draining:
            return 503, {
                "ok": False, "error": "server is draining",
            }, method, path, False
        if method == "GET" and path == "/healthz":
            return 200, self._health_doc(), method, path, keep
        if method == "GET" and path == "/stats":
            return 200, self._stats_doc(), method, path, keep
        if path != "/route":
            return 404, {
                "ok": False, "error": f"no such endpoint {path!r}",
            }, method, path, keep
        if method != "POST":
            return 405, {
                "ok": False, "error": "/route expects POST",
            }, method, path, keep
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError:
            return 400, {
                "ok": False, "error": "request body is not valid JSON",
            }, method, path, keep
        status, body = await self._route(doc)
        if status == 200:
            self.stats["routed"] += 1
            if body.get("cache_hit"):
                self.stats["cache_hits"] += 1
            mode = body.get("mode")
            if mode in ("warm", "cold"):
                self.stats[mode] += 1
        return status, body, method, path, keep
