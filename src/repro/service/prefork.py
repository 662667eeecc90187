"""Prefork multi-process front: shard accept loops under a supervisor.

``repro serve --shards N`` runs N **shard** processes, each a full
:class:`~repro.service.server.RoutingServer` accept loop, all serving
one listen endpoint:

* **TCP** — every shard binds its own socket to the same address with
  ``SO_REUSEPORT``; the kernel load-balances incoming connections
  across the listening shards.  The supervisor holds a bound but
  *non-listening* ``SO_REUSEPORT`` "anchor" socket on the same address:
  it never receives connections (the kernel only distributes among
  listening sockets) but keeps the port reserved across shard restarts
  and resolves ``--port 0`` to a concrete port before the first fork.
* **Unix socket** — the supervisor binds and listens once; every shard
  inherits the listening fd through ``fork`` and accepts from the
  shared queue.

The supervisor ``waitpid``-loops: a shard that dies unexpectedly is
logged and **restarted** (the replacement loads its predecessor's last
stats flush as a baseline, so aggregate counters survive the restart),
and SIGTERM/SIGINT is fanned out as SIGTERM to every shard for a
graceful drain — the supervisor exits 0 once all shards drained
cleanly.  A shard still starting up holds the signal pending until its
drain handler is installed, so an early SIGTERM drains it too.

``/stats`` stays one endpoint: each shard periodically flushes its
counters to a per-shard JSON file (:class:`StatsBoard`, atomic
tmp+rename writes), and whichever shard answers ``/stats`` flushes its
own counters first, then returns the **aggregate** across the board
plus a ``per_shard`` breakdown and its own ``shard`` id.  ``/healthz``
carries ``shard`` and ``pid`` so clients can observe restarts.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service.resilience import FaultPlan
from repro.service.server import RoutingServer
from repro.utils.validation import ReproError

#: seconds between periodic per-shard stats flushes
STATS_FLUSH_INTERVAL = 0.25

#: listen backlog of shard sockets
BACKLOG = 128

#: a shard dying this soon after its spawn counts as a rapid failure …
RAPID_DEATH_S = 0.5
#: … and this many consecutive rapid failures abort the supervisor
MAX_RAPID_DEATHS = 10

#: the signals that ask a shard to drain; blocked across ``fork`` so a
#: shard still starting up keeps them pending instead of losing them
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class StatsBoard:
    """Per-shard counter files under one directory (atomic writes).

    One JSON file per shard id.  Writes go through a tmp file +
    ``os.replace`` so a reader never sees a torn document; a shard
    restarted after a crash loads its predecessor's file as a baseline,
    which keeps aggregate counters monotonic across restarts (modulo
    at most one flush interval of unflushed counts).
    """

    def __init__(self, root: str):
        self.root = str(root)

    def path(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard-{int(shard_id)}.json")

    def write(self, shard_id: int, stats: Dict[str, Any]) -> None:
        path = self.path(shard_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(stats, fh)
        os.replace(tmp, path)

    def load(self, shard_id: int) -> Dict[str, Any]:
        """The shard's last flush ({} when it never flushed)."""
        try:
            with open(self.path(shard_id)) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def shard_ids(self) -> List[int]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        ids = []
        for name in names:
            if name.startswith("shard-") and name.endswith(".json"):
                try:
                    ids.append(int(name[len("shard-"):-len(".json")]))
                except ValueError:
                    pass
        return sorted(ids)

    def aggregate(self) -> Tuple[Dict[str, int], Dict[str, Dict[str, int]]]:
        """``(totals, per_shard)`` over every shard file on the board."""
        totals: Dict[str, int] = {}
        per_shard: Dict[str, Dict[str, int]] = {}
        for sid in self.shard_ids():
            stats = self.load(sid)
            counters = {
                k: int(v) for k, v in stats.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            per_shard[str(sid)] = counters
            for k, v in counters.items():
                totals[k] = totals.get(k, 0) + v
        return totals, per_shard


class ShardServer(RoutingServer):
    """One prefork shard: a :class:`RoutingServer` plus board bookkeeping."""

    def __init__(self, *, shard_id: int, board: StatsBoard, **kwargs):
        super().__init__(**kwargs)
        self.shard_id = int(shard_id)
        self.board = board
        # a restarted shard resumes its predecessor's counters so the
        # board aggregate stays consistent across crashes
        self._baseline = {
            k: int(v)
            for k, v in board.load(self.shard_id).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }

    def snapshot(self) -> Dict[str, int]:
        """This shard's counters, baseline included."""
        return {
            k: v + self._baseline.get(k, 0) for k, v in self.stats.items()
        }

    def flush(self) -> None:
        self.board.write(self.shard_id, self.snapshot())

    def _health_doc(self) -> Dict[str, Any]:
        doc = super()._health_doc()
        doc["shard"] = self.shard_id
        doc["pid"] = os.getpid()
        return doc

    def _stats_doc(self) -> Dict[str, Any]:
        # flush first so this shard's own counters are exact in the
        # aggregate; peers may lag by up to one flush interval
        self.flush()
        totals, per_shard = self.board.aggregate()
        return {
            "ok": True,
            **totals,
            "inflight": self._inflight,
            "queued": self._waiting,
            "shard": self.shard_id,
            "per_shard": per_shard,
        }


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound ``SO_REUSEPORT`` TCP socket (not yet listening)."""
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - non-unix
        raise ReproError(
            "--shards needs SO_REUSEPORT, unavailable on this platform"
        )
    infos = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, proto=socket.IPPROTO_TCP
    )
    family, kind, proto, _, addr = infos[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(addr)
    except OSError:
        sock.close()
        raise
    return sock


def _shard_main(
    shard_id: int,
    board: StatsBoard,
    *,
    host: str,
    port: int,
    unix_sock: Optional[socket.socket],
    drain_timeout: float,
    server_kwargs: Dict[str, Any],
) -> None:
    """Run one shard's accept loop; never returns (``os._exit``)."""
    code = 1
    try:
        # the fault-plan env hook is re-read per shard so REPRO_FAULTS
        # scripts each shard's request stream independently
        server = ShardServer(
            shard_id=shard_id,
            board=board,
            fault_plan=FaultPlan.from_env(),
            **server_kwargs,
        )

        async def run() -> bool:
            if unix_sock is not None:
                server._ensure_pool()
                srv = await asyncio.start_unix_server(
                    server._handle, sock=unix_sock
                )
            else:
                lsock = _reuseport_socket(host, port)
                lsock.listen(BACKLOG)
                server._ensure_pool()
                srv = await asyncio.start_server(server._handle, sock=lsock)
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            for sig in STOP_SIGNALS:
                loop.add_signal_handler(sig, stop.set)
            # blocked since the fork (run_prefork.spawn): a drain request
            # that arrived during start-up is delivered here
            signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)

            async def flush_loop() -> None:
                while True:
                    await asyncio.sleep(STATS_FLUSH_INTERVAL)
                    server.flush()

            flusher = asyncio.ensure_future(flush_loop())
            server.flush()  # announce this shard on the board
            async with srv:
                await stop.wait()
                drained = await server.drain(srv, timeout=drain_timeout)
            flusher.cancel()
            server.flush()
            return drained

        code = 0 if asyncio.run(run()) else 1
    except Exception as exc:  # noqa: BLE001 — a shard must never
        # escape into the supervisor's stack below the fork point
        print(f"repro-serve shard {shard_id} failed: {exc}",
              file=sys.stderr, flush=True)
        code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _describe_exit(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"signal {os.WTERMSIG(status)}"
    return f"exit {os.WEXITSTATUS(status)}"


def run_prefork(
    *,
    shards: int,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[str] = None,
    drain_timeout: float = 10.0,
    announce: bool = True,
    **server_kwargs: Any,
) -> int:
    """Supervise ``shards`` accept-loop processes; block until shutdown.

    ``server_kwargs`` are passed to every shard's
    :class:`~repro.service.server.RoutingServer` (jobs, cache, admission,
    deadlines, …).  Returns the process exit code: 0 when every shard
    drained cleanly after SIGTERM/SIGINT, 1 otherwise.
    """
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        raise ReproError(f"shards must be an integer >= 1, got {shards!r}")
    board_dir = tempfile.mkdtemp(prefix="repro-shards-")
    board = StatsBoard(board_dir)
    anchor: Optional[socket.socket] = None
    unix_sock: Optional[socket.socket] = None
    if socket_path is not None:
        try:
            os.unlink(socket_path)
        except OSError:
            pass
        unix_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        unix_sock.bind(socket_path)
        unix_sock.listen(BACKLOG)
        where = f"unix:{socket_path}"
    else:
        anchor = _reuseport_socket(host, port)
        port = anchor.getsockname()[1]  # resolve --port 0 before forking
        where = f"http://{host}:{port}"

    pids: Dict[int, int] = {}
    spawned_at: Dict[int, float] = {}

    def spawn(shard_id: int) -> int:
        # the shard starts with the stop signals blocked and unblocks them
        # once its drain handler is installed; the supervisor restores its
        # mask once the pid is on record, so on_term never misses a shard
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:  # child: never returns
                if anchor is not None:
                    anchor.close()  # shards bind their own REUSEPORT socket
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                _shard_main(
                    shard_id,
                    board,
                    host=host,
                    port=port,
                    unix_sock=unix_sock,
                    drain_timeout=drain_timeout,
                    server_kwargs=server_kwargs,
                )
                raise AssertionError("unreachable")  # pragma: no cover
            pids[pid] = shard_id
            spawned_at[pid] = time.monotonic()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return pid

    draining = False

    def on_term(signum, frame):  # noqa: ARG001 — signal signature
        nonlocal draining
        draining = True
        for pid in list(pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    prev_term = signal.signal(signal.SIGTERM, on_term)
    prev_int = signal.signal(signal.SIGINT, on_term)

    try:
        for sid in range(shards):
            spawn(sid)
        if announce:
            print(
                f"repro service listening on {where} "
                f"(shards={shards}, supervisor pid {os.getpid()})",
                flush=True,
            )
        failures = 0
        rapid = 0
        while pids:
            try:
                pid, status = os.waitpid(-1, 0)
            except InterruptedError:  # pragma: no cover - pre-PEP-475
                continue
            except ChildProcessError:
                break
            sid = pids.pop(pid, None)
            if sid is None:
                continue
            if draining:
                if not (os.WIFEXITED(status)
                        and os.WEXITSTATUS(status) == 0):
                    failures += 1
                continue
            if time.monotonic() - spawned_at.get(pid, 0.0) < RAPID_DEATH_S:
                rapid += 1
                if rapid > MAX_RAPID_DEATHS:
                    print(
                        f"shard {sid} keeps dying at birth "
                        f"({_describe_exit(status)}); giving up",
                        file=sys.stderr,
                        flush=True,
                    )
                    on_term(signal.SIGTERM, None)
                    failures += 1
                    continue
            else:
                rapid = 0
            print(
                f"shard {sid} (pid {pid}) died ({_describe_exit(status)}); "
                "restarting",
                flush=True,
            )
            spawn(sid)
        return 0 if draining and failures == 0 else 1
    finally:
        signal.signal(signal.SIGTERM, prev_term)
        signal.signal(signal.SIGINT, prev_int)
        if anchor is not None:
            anchor.close()
        if unix_sock is not None:
            unix_sock.close()
            try:
                os.unlink(socket_path)
            except OSError:
                pass
        for name in os.listdir(board_dir):
            try:
                os.unlink(os.path.join(board_dir, name))
            except OSError:
                pass
        try:
            os.rmdir(board_dir)
        except OSError:
            pass
