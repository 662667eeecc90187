"""Routing service end-to-end: protocol, cache, pool parity, CLI remote.

Covers the pure request handler (:func:`handle_request_doc`), the
ArtifactStore-backed result cache, serial-vs-worker-pool bit-identity,
the live asyncio server over TCP and unix sockets via the stdlib client,
and the ``repro route --server/--socket`` CLI remote mode.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.cli import main
from repro.io import workload_to_csv
from repro.io.jsonio import problem_to_dict, routing_to_dict
from repro.service import (
    RouteRequestKey,
    RoutingServer,
    ServiceClient,
    handle_request_doc,
    request_wire,
    route_incremental,
)
from repro.service.server import _pool_worker
from repro.utils.validation import ReproError
from tests.conftest import make_random_problem


def small_problem(seed: int = 21, n: int = 8) -> RoutingProblem:
    return make_random_problem(
        Mesh(4, 4), PowerModel.kim_horowitz(), n, 100.0, 700.0, seed=seed
    )


def request_doc(problem, prev=None, **kw):
    doc = {"problem": problem_to_dict(problem)}
    if prev is not None:
        doc["prev"] = routing_to_dict(prev)
    doc.update(kw)
    return doc


def canonical(body, drop=("elapsed_ms",)):
    """A response body as canonical JSON, minus wall-clock fields."""
    return json.dumps(
        {k: v for k, v in body.items() if k not in drop}, sort_keys=True
    )


# ----------------------------------------------------------------------
class TestHandleRequestDoc:
    def test_cold_request(self, tmp_path):
        status, body = handle_request_doc(
            request_doc(small_problem()), cache_dir=str(tmp_path)
        )
        assert status == 200
        assert body["ok"] and body["mode"] == "cold"
        assert not body["cache_hit"]
        assert body["valid"]

    def test_warm_request(self, tmp_path):
        problem = small_problem()
        prev = route_incremental(problem).routing
        status, body = handle_request_doc(
            request_doc(problem, prev), cache_dir=str(tmp_path)
        )
        assert status == 200
        assert body["mode"] == "warm"
        assert body["stats"]["matched"] == problem.num_comms

    def test_exact_resubmission_hits_cache(self, tmp_path):
        doc = request_doc(small_problem())
        _, first = handle_request_doc(doc, cache_dir=str(tmp_path))
        _, again = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert not first["cache_hit"]
        assert again["cache_hit"]
        assert again["routing"] == first["routing"]
        assert again["power"] == first["power"]

    def test_cache_hit_replays_the_miss(self, tmp_path):
        problem = small_problem()
        doc = request_doc(problem, route_incremental(problem).routing, seed=1)
        _, first = handle_request_doc(doc, cache_dir=str(tmp_path))
        _, again = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert again["cache_hit"] and not first["cache_hit"]
        # a hit returns the computed body bit for bit: only the
        # transport fields differ
        transport = ("elapsed_ms", "cache_hit")
        assert canonical(again, transport) == canonical(first, transport)

    def test_perturbed_resubmission_misses_cache(self, tmp_path):
        problem = small_problem()
        _, first = handle_request_doc(
            request_doc(problem), cache_dir=str(tmp_path)
        )
        comms = list(problem.comms)
        comms[0] = Communication(comms[0].src, comms[0].snk, 321.0)
        other = RoutingProblem(problem.mesh, problem.power, comms)
        _, second = handle_request_doc(
            request_doc(other), cache_dir=str(tmp_path)
        )
        assert not second["cache_hit"]

    def test_cache_optout(self, tmp_path):
        doc = request_doc(small_problem(), cache=False)
        handle_request_doc(doc, cache_dir=str(tmp_path))
        _, again = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert not again["cache_hit"]

    def test_knobs_key_the_cache(self, tmp_path):
        problem = small_problem()
        base = request_wire(problem, None, "XYI", "anneal", 0)
        assert (
            RouteRequestKey(base).spec_hash()
            != RouteRequestKey(
                request_wire(problem, None, "XYI", "anneal", 1)
            ).spec_hash()
        )
        assert (
            RouteRequestKey(base).spec_hash()
            != RouteRequestKey(
                request_wire(problem, None, "XYI", "none", 0)
            ).spec_hash()
        )

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ([], "JSON object"),
            ({}, "missing the 'problem'"),
            ({"problem": {"bogus": 1}}, ""),
        ],
    )
    def test_malformed_requests_answer_400(self, doc, needle, tmp_path):
        status, body = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert status == 400
        assert not body["ok"]
        assert needle in body["error"]

    def test_bad_knobs_answer_400(self, tmp_path):
        problem = small_problem()
        for extra in ({"polish": "zap"}, {"seed": -1}, {"solver": "NOPE"}):
            status, body = handle_request_doc(
                request_doc(problem, **extra), cache_dir=str(tmp_path)
            )
            assert status == 400, extra
            assert not body["ok"]


class TestPoolParity:
    def test_inline_and_pool_bit_identical(self, tmp_path):
        problem = small_problem()
        prev = route_incremental(problem).routing
        doc = request_doc(problem, prev, seed=4)
        _, inline = handle_request_doc(doc, use_cache=False)
        with ProcessPoolExecutor(max_workers=1) as pool:
            _, pooled = pool.submit(_pool_worker, doc, None, False).result()
        inline.pop("elapsed_ms", None)
        pooled.pop("elapsed_ms", None)
        assert json.dumps(inline, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )


# ----------------------------------------------------------------------
class _LiveServer:
    """A RoutingServer running on a daemon thread (TCP or unix)."""

    def __init__(self, socket_path=None, **kw):
        self.server = RoutingServer(**kw)
        self.socket_path = socket_path
        self.asyncio_server = None
        self._loop = None
        self._stop = None
        self._ready: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self.socket_path is not None:
            srv = await self.server.start_unix(self.socket_path)
            self.asyncio_server = srv
            self._ready.put(None)
        else:
            srv = await self.server.start_tcp("127.0.0.1", 0)
            self.asyncio_server = srv
            self._ready.put(srv.sockets[0].getsockname()[1])
        async with srv:
            await self._stop.wait()

    def run_async(self, coro, timeout=30.0):
        """Run a coroutine on the live server's loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def __enter__(self):
        self._thread.start()
        self.port = self._ready.get(timeout=10)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
        self.server.close()


class TestLiveServer:
    def test_tcp_end_to_end(self, tmp_path):
        problem = small_problem()
        with _LiveServer(cache_dir=str(tmp_path / "cache")) as live:
            client = ServiceClient("127.0.0.1", live.port)
            health = client.wait_ready()
            assert health["ok"] and health["jobs"] == 1
            first = client.route(request_doc(problem))
            assert first["ok"] and first["mode"] == "cold"
            warm = client.route(
                request_doc(problem, None)
                | {"prev": first["routing"]}
            )
            assert warm["mode"] == "warm"
            assert warm["power"] == first["power"]  # no-op resubmission
            again = client.route(
                request_doc(problem, None) | {"prev": first["routing"]}
            )
            assert again["cache_hit"]
            stats = client.stats()
            assert stats["routed"] == 3
            assert stats["cache_hits"] == 1
            assert stats["cold"] == 1 and stats["warm"] == 2

    def test_concurrent_inline_and_pooled_match_serial(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        docs = [
            request_doc(problem, prev, seed=s, cache=False) for s in range(3)
        ] + [request_doc(small_problem(seed=s), cache=False) for s in (5, 6)]
        want = [
            canonical(handle_request_doc(d, use_cache=False)[1]) for d in docs
        ]
        for jobs in (1, 2):
            got = [None] * len(docs)
            with _LiveServer(jobs=jobs, use_cache=False) as live:
                with ServiceClient("127.0.0.1", live.port) as client:
                    client.wait_ready()

                def route(i):
                    # one client per thread: the requests run concurrently
                    with ServiceClient("127.0.0.1", live.port) as client:
                        got[i] = client.route(docs[i])

                threads = [
                    threading.Thread(target=route, args=(i,))
                    for i in range(len(docs))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), f"jobs={jobs}"
            assert [canonical(b) for b in got] == want, f"jobs={jobs}"

    def test_unix_socket_end_to_end(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        with _LiveServer(
            socket_path=sock, cache_dir=str(tmp_path / "cache")
        ):
            client = ServiceClient(socket_path=sock)
            client.wait_ready()
            body = client.route(request_doc(small_problem()))
            assert body["ok"] and body["valid"]

    def test_protocol_errors(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path / "cache")) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            with pytest.raises(ReproError, match="404"):
                client._request("GET", "/nope")
            with pytest.raises(ReproError, match="405"):
                client._request("GET", "/route")
            with pytest.raises(ReproError, match="400"):
                client.route([1, 2, 3])
            # a bad request must not kill the server
            assert client.health()["ok"]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ReproError, match="jobs must be"):
            RoutingServer(jobs=0)


def _raw_exchange(port, payload: bytes, count=1):
    """Send raw bytes, parse ``count`` HTTP responses off the socket.

    Returns a list of ``(status, headers, body)`` triples — the
    low-level view the stdlib client hides, for protocol edge tests.
    ``count=None`` reads responses until the server closes the
    connection.
    """
    import socket as socket_mod

    out = []
    with socket_mod.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(payload)
        rfile = s.makefile("rb")
        while count is None or len(out) < count:
            line = rfile.readline()
            if count is None and line == b"":
                break
            status = int(line.split()[1])
            headers = {}
            while True:
                line = rfile.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body = rfile.read(int(headers.get("content-length", 0)))
            out.append((status, headers, json.loads(body)))
    return out


def _healthz_ok(port) -> bool:
    """The server still answers ``/healthz`` on a fresh connection."""
    client = ServiceClient("127.0.0.1", port)
    try:
        return client.health()["ok"]
    finally:
        client.close()


class TestProtocolEdges:
    """The untested server edge paths: 413, bad headers, keep-alive."""

    def test_oversized_body_answers_413(self, tmp_path):
        from repro.service.server import MAX_BODY_BYTES

        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "POST /route HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            [(status, _, body)] = _raw_exchange(live.port, req)
            assert status == 413
            assert not body["ok"] and "too large" in body["error"]
            # the server survives the oversized claim
            assert ServiceClient("127.0.0.1", live.port).health()["ok"]

    def test_negative_content_length_answers_413(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "POST /route HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: -5\r\nConnection: close\r\n\r\n"
            ).encode()
            [(status, _, _)] = _raw_exchange(live.port, req)
            assert status == 413

    # int() reads "0_8" and "+8" as 8: only ASCII digits may frame a body
    @pytest.mark.parametrize("value", ["abc", "0_8", "+8", "\u0668"])
    def test_bad_content_length_answers_400(self, value, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "POST /route HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {value}\r\nConnection: close\r\n\r\n"
                '{"x": 1}'
            ).encode()
            [(status, _, body)] = _raw_exchange(live.port, req)
            assert status == 400
            assert "Content-Length" in body["error"]
            assert _healthz_ok(live.port)

    def _answered_once_then_closed(self, port, req, status, needle):
        """Exactly one response, then the server closes the connection."""
        [(got, headers, body)] = _raw_exchange(port, req, count=None)
        assert got == status, body
        assert needle in body["error"]
        assert headers["connection"] == "close"
        assert _healthz_ok(port)

    def test_conflicting_content_lengths_answer_400(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "POST /route HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 2\r\nContent-Length: 8\r\n\r\n"
                '{"x": 1}'
            ).encode()
            self._answered_once_then_closed(
                live.port, req, 400, "conflicting Content-Length"
            )

    def test_chunked_body_answers_one_400(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "POST /route HTTP/1.1\r\nHost: x\r\n"
                "Transfer-Encoding: chunked\r\n\r\n"
                "2\r\n{}\r\n0\r\n\r\n"
            ).encode()
            self._answered_once_then_closed(
                live.port, req, 400, "Transfer-Encoding"
            )

    def test_overlong_request_line_answers_414(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                f"GET /{'a' * 70_000} HTTP/1.1\r\nHost: x\r\n\r\n"
            ).encode()
            self._answered_once_then_closed(
                live.port, req, 414, "request line"
            )

    def test_overlong_header_line_answers_431(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            req = (
                "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                f"X-Filler: {'a' * 70_000}\r\n\r\n"
            ).encode()
            self._answered_once_then_closed(
                live.port, req, 431, "header line"
            )

    def test_keep_alive_serves_requests_back_to_back(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            one = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            last = (
                "GET /nope HTTP/1.1\r\nHost: x\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            results = _raw_exchange(live.port, one + one + last, count=3)
            assert [status for status, _, _ in results] == [200, 200, 404]
            assert results[0][1]["connection"] == "keep-alive"
            assert results[2][1]["connection"] == "close"

    def test_stats_accuracy_over_mixed_sequence(self, tmp_path):
        problems = [small_problem(seed=s) for s in (31, 32)]
        with _LiveServer(cache_dir=str(tmp_path / "cache")) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()  # requests: 1
            for p in problems:  # requests: 2, 3 — cold misses
                assert client.route(request_doc(p))["mode"] == "cold"
            hit = client.route(request_doc(problems[0]))  # requests: 4
            assert hit["cache_hit"]
            with pytest.raises(ReproError, match="400"):
                client.route({"problem": {"bogus": 1}})  # requests: 5
            with pytest.raises(ReproError, match="400"):
                client.route(  # requests: 6 — rejected before compute
                    request_doc(problems[0], solver="NOPE")
                )
            with pytest.raises(ReproError, match="404"):
                client._request("GET", "/missing")  # requests: 7
            stats = client.stats()  # requests: 8
            assert stats["requests"] == 8
            assert stats["routed"] == 3
            assert stats["cache_hits"] == 1
            # the cache-hit replays a cold response, so its mode recounts
            assert stats["cold"] == 3 and stats["warm"] == 0
            assert stats["errors"] == 3  # two 400s and the 404
            assert stats["rejected"] == 0 and stats["timeouts"] == 0
            assert stats["pool_rebuilds"] == 0
            assert stats["inflight"] == 0 and stats["queued"] == 0


class TestCliRemote:
    """``repro route --socket`` against a live service."""

    def test_cli_cold_warm_cache(self, tmp_path, capsys):
        problem = small_problem()
        csv = tmp_path / "wl.csv"
        workload_to_csv(problem.comms, str(csv))
        sock = str(tmp_path / "svc.sock")
        out_json = tmp_path / "routing.json"
        with _LiveServer(
            socket_path=sock, cache_dir=str(tmp_path / "cache")
        ):
            rc = main(
                ["route", str(csv), "--mesh", "4x4", "--socket", sock,
                 "--out", str(out_json)]
            )
            assert rc == 0
            assert "cold route" in capsys.readouterr().out
            assert out_json.is_file()
            rc = main(
                ["route", str(csv), "--mesh", "4x4", "--socket", sock,
                 "--prev", str(out_json)]
            )
            assert rc == 0
            assert "warm route" in capsys.readouterr().out
            rc = main(
                ["route", str(csv), "--mesh", "4x4", "--socket", sock,
                 "--prev", str(out_json)]
            )
            assert rc == 0
            assert "cache_hit=True" in capsys.readouterr().out

    def test_cli_unreachable_service(self, tmp_path, capsys):
        problem = small_problem()
        csv = tmp_path / "wl.csv"
        workload_to_csv(problem.comms, str(csv))
        rc = main(
            ["route", str(csv), "--mesh", "4x4",
             "--socket", str(tmp_path / "nope.sock")]
        )
        assert rc == 2
        assert "cannot reach the routing service" in capsys.readouterr().err
