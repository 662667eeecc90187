"""The service resilience layer, end to end.

Fault-plan parsing and one-shot consumption, the seeded retry schedule,
admission control (429 + ``Retry-After``), compute deadlines (504),
worker-crash recovery (both a scripted crash and a real ``kill -9`` of a
pool worker), scripted connection drops, client keep-alive and
truncation handling, graceful drain, the ``--verbose`` request log, and
the acceptance scenario: a scripted worker-kill + delay + drop plan run
against a pooled server completes every request with zero client-visible
failures and routings bit-identical to an undisturbed serial run.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.service import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServiceClient,
    TruncatedResponseError,
    handle_request_doc,
    parse_retry_after,
)
from repro.utils.validation import ReproError
from tests.test_service_server import _LiveServer, request_doc, small_problem

#: a retry policy tuned for tests: patient enough to outlast any
#: injected fault, fast enough to keep the suite quick
TEST_RETRY = RetryPolicy(attempts=8, base=0.05, max_delay=0.4, seed=1)


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_compact(self):
        plan = FaultPlan.parse("crash@3, delay@5:0.2 ,drop@7")
        assert [s.kind for s in plan.specs] == ["crash", "delay", "drop"]
        assert [s.index for s in plan.specs] == [3, 5, 7]
        assert plan.specs[1].seconds == 0.2

    def test_parse_empty_and_env(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.from_env(env={})
        plan = FaultPlan.from_env(env={"REPRO_FAULTS": "crash@0"})
        assert len(plan) == 1 and plan.specs[0].kind == "crash"

    def test_take_is_one_shot(self):
        plan = FaultPlan.parse("crash@2")
        assert plan.take(0) is None
        assert plan.pending() == 1
        fault = plan.take(2)
        assert fault is not None and fault.kind == "crash"
        assert plan.take(2) is None  # consumed
        assert plan.pending() == 0

    @pytest.mark.parametrize(
        "text",
        ["zap@1", "crash@", "crash@x", "delay@1:x", "crash-1", "[{}]",
         "[not json", '[{"kind": "crash", "index": -1}]'],
    )
    def test_bad_plans_rejected(self, text):
        with pytest.raises(ReproError):
            FaultPlan.parse(text)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ReproError, match="two faults"):
            FaultPlan([FaultSpec(1, "crash"), FaultSpec(1, "drop")])


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        a = list(RetryPolicy(seed=3).delays())
        b = list(RetryPolicy(seed=3).delays())
        c = list(RetryPolicy(seed=4).delays())
        assert a == b
        assert a != c
        assert len(a) == RetryPolicy().attempts - 1

    def test_backoff_grows_and_is_bounded(self):
        policy = RetryPolicy(
            attempts=10, base=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        delays = list(policy.delays())
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert max(delays) == pytest.approx(0.5)  # capped
        assert delays == sorted(delays)

    def test_jitter_scales_within_band(self):
        policy = RetryPolicy(attempts=50, base=0.1, multiplier=1.0, jitter=0.5)
        for delay in policy.delays():
            assert 0.1 <= delay <= 0.1 * 1.5 + 1e-12

    def test_reseeded_keeps_shape(self):
        policy = RetryPolicy(attempts=7, base=0.2, seed=0)
        other = policy.reseeded(9)
        assert other.attempts == 7 and other.base == 0.2 and other.seed == 9

    @pytest.mark.parametrize(
        "kw",
        [dict(attempts=0), dict(attempts=1.5), dict(base=-1),
         dict(multiplier=0.5), dict(jitter=-0.1)],
    )
    def test_bad_policies_rejected(self, kw):
        with pytest.raises(ReproError):
            RetryPolicy(**kw)

    def test_parse_retry_after(self):
        assert parse_retry_after("0.25") == 0.25
        assert parse_retry_after(" 3 ") == 3.0
        assert parse_retry_after("soon") is None
        assert parse_retry_after("-1") is None
        assert parse_retry_after(None) is None


# ----------------------------------------------------------------------
class TestRequestValidation:
    """Satellite: bad seed/solver/polish 400 instead of leaking a 500."""

    @pytest.mark.parametrize(
        "extra,needle",
        [
            ({"seed": "7"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": {"nested": 1}}, "seed"),
            ({"solver": "NOPE"}, "unknown solver"),
            ({"solver": 42}, "solver must be a string"),
            ({"polish": "zap"}, "polish"),
            ({"polish": ["anneal"]}, "polish must be a string"),
        ],
    )
    def test_bad_knobs_answer_400(self, extra, needle, tmp_path):
        doc = request_doc(small_problem(), **extra)
        status, body = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert status == 400, body
        assert not body["ok"]
        assert needle in body["error"]
        assert "\n" not in body["error"]  # one-line, no traceback

    def test_knobs_validated_even_on_the_warm_path(self, tmp_path):
        """A warm request never uses ``solver`` — it must still validate."""
        from repro.service import route_incremental

        problem = small_problem()
        prev = route_incremental(problem).routing
        doc = request_doc(problem, prev, solver="BOGUS")
        status, body = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert status == 400
        assert "unknown solver" in body["error"]


# ----------------------------------------------------------------------
class TestAdmissionControl:
    @pytest.mark.parametrize("jobs", [1, 2])  # inline and pooled
    def test_overflow_answers_429_then_recovers(self, jobs, tmp_path):
        plan = FaultPlan.parse("delay@0:0.6")
        with _LiveServer(
            jobs=jobs, cache_dir=str(tmp_path), max_inflight=1,
            queue_depth=0, fault_plan=plan,
        ) as live:
            slow_result = {}

            def slow():
                client = ServiceClient("127.0.0.1", live.port, retry=None)
                slow_result["body"] = client.route(request_doc(small_problem()))

            thread = threading.Thread(target=slow)
            blocked = ServiceClient("127.0.0.1", live.port, retry=None)
            blocked.wait_ready()
            thread.start()
            time.sleep(0.2)  # let the slow request claim the only slot
            with pytest.raises(ReproError, match="429"):
                blocked.route(request_doc(small_problem(seed=5)))
            # a retrying client rides out the backpressure window
            patient = ServiceClient(
                "127.0.0.1", live.port, retry=TEST_RETRY
            )
            assert patient.route(request_doc(small_problem(seed=6)))["ok"]
            thread.join(timeout=10)
            assert slow_result["body"]["ok"]
            stats = blocked.stats()
            assert stats["rejected"] >= 1
            assert stats["routed"] == 2

    def test_429_carries_retry_after(self, tmp_path):
        from tests.test_service_server import _raw_exchange

        plan = FaultPlan.parse("delay@0:0.6")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), max_inflight=1, queue_depth=0,
            fault_plan=plan,
        ) as live:
            doc = json.dumps(request_doc(small_problem())).encode()
            req = (
                f"POST /route HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(doc)}\r\nConnection: close\r\n\r\n"
            ).encode() + doc
            thread = threading.Thread(
                target=lambda: _raw_exchange(live.port, req)
            )
            thread.start()
            time.sleep(0.2)
            [(status, headers, body)] = _raw_exchange(live.port, req)
            thread.join(timeout=10)
            assert status == 429
            assert parse_retry_after(headers.get("retry-after")) is not None
            assert "saturated" in body["error"]


class TestDeadlines:
    def test_compute_overrun_answers_504(self, tmp_path):
        plan = FaultPlan.parse("delay@0:2.0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), compute_timeout=0.2,
            fault_plan=plan,
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            with pytest.raises(ReproError, match="504"):
                client.route(request_doc(small_problem()))
            # the handler loop survives: the next request computes fine
            assert client.route(request_doc(small_problem(seed=9)))["ok"]
            stats = client.stats()
            assert stats["timeouts"] == 1
            assert stats["routed"] == 1

    def test_slow_header_read_is_dropped(self, tmp_path):
        with _LiveServer(
            cache_dir=str(tmp_path), header_timeout=0.2
        ) as live:
            with socket.create_connection(
                ("127.0.0.1", live.port), timeout=5
            ) as s:
                s.sendall(b"POST /route HT")  # stall mid-request-line
                t0 = time.perf_counter()
                assert s.recv(1024) == b""  # server hung up on us
                assert time.perf_counter() - t0 < 5.0
            deadline = time.time() + 5.0
            while not live.server.stats["slow_reads"] and time.time() < deadline:
                time.sleep(0.01)
            assert live.server.stats["slow_reads"] == 1
            # and the listener is still healthy
            assert ServiceClient("127.0.0.1", live.port).health()["ok"]


# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_scripted_crash_recovers_transparently(self, tmp_path):
        plan = FaultPlan.parse("crash@0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            body = client.route(request_doc(small_problem()))
            assert body["ok"] and body["valid"]
            stats = client.stats()
            assert stats["pool_rebuilds"] == 1
            assert stats["routed"] == 1

    def test_real_kill_dash_nine_costs_one_retry(self, tmp_path):
        with _LiveServer(jobs=2, cache_dir=str(tmp_path)) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            first = client.route(request_doc(small_problem()))
            assert first["ok"]
            pids = list(live.server._pool._processes)
            assert pids, "pool workers must exist after the first request"
            for pid in pids:  # no survivors: the next submit must break
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)  # let the executor notice the corpses
            again = client.route(request_doc(small_problem(seed=5)))
            assert again["ok"] and again["valid"]
            stats = client.stats()
            assert stats["pool_rebuilds"] == 1
            assert stats["routed"] == 2

    def test_inline_mode_recovers_from_injected_crash(self, tmp_path):
        plan = FaultPlan.parse("crash@0")
        with _LiveServer(
            jobs=1, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            assert client.route(request_doc(small_problem()))["ok"]
            assert client.stats()["pool_rebuilds"] == 1

    def test_crash_answer_is_bit_identical_to_serial(self, tmp_path):
        doc = request_doc(small_problem(), cache=False)
        _, serial = handle_request_doc(doc, use_cache=False)
        plan = FaultPlan.parse("crash@0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), use_cache=False, fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            body = client.route(doc)
        for key in ("routing", "power", "valid", "stats", "mode"):
            assert json.dumps(body[key], sort_keys=True) == json.dumps(
                serial[key], sort_keys=True
            ), key


class TestDroppedConnections:
    def test_scripted_drop_is_absorbed_by_retry(self, tmp_path):
        plan = FaultPlan.parse("drop@0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=TEST_RETRY)
            client.wait_ready()
            body = client.route(request_doc(small_problem()))
            assert body["ok"] and body["valid"]
            stats = client.stats()
            assert stats["drops"] == 1
            assert stats["routed"] == 1
            assert client.connections_opened == 2  # one reconnect

    def test_scripted_drop_surfaces_without_retry(self, tmp_path):
        plan = FaultPlan.parse("drop@0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            client.wait_ready()
            with pytest.raises(ReproError):
                client.route(request_doc(small_problem()))


class TestHandlerErrors:
    def test_handler_failure_is_counted_and_logged(
        self, tmp_path, monkeypatch, capfd
    ):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            real = live.server._serve_one
            failures = []

            async def fail_once(reader, writer):
                if not failures:
                    failures.append(1)
                    raise RuntimeError("injected handler failure")
                return await real(reader, writer)

            monkeypatch.setattr(live.server, "_serve_one", fail_once)
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            with pytest.raises(ReproError):
                client.health()
            # the accept loop survived: the next connection is served
            client = ServiceClient("127.0.0.1", live.port, retry=None)
            assert client.route(request_doc(small_problem()))["ok"]
            assert client.stats()["handler_errors"] == 1
        err = capfd.readouterr().err
        assert "handler error: RuntimeError: injected handler failure" in err


# ----------------------------------------------------------------------
class TestClientKeepAlive:
    def test_connection_is_reused_across_requests(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            client.route(request_doc(small_problem()))
            client.route(request_doc(small_problem(seed=5)))
            client.stats()
            assert client.connections_opened == 1

    def test_client_reconnects_after_server_side_close(self, tmp_path):
        with _LiveServer(cache_dir=str(tmp_path)) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=TEST_RETRY)
            client.wait_ready()
            client.close()  # simulate a dead kept-alive connection
            assert client.health()["ok"]
            assert client.connections_opened == 2

    def test_truncated_response_raises_clearly(self):
        """A connection cut mid-body is a TruncatedResponseError, not a
        confusing JSON decode error (satellite fix)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def truncating_server():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 1000\r\n\r\n{\"ok\": tru"
            )
            conn.close()

        thread = threading.Thread(target=truncating_server, daemon=True)
        thread.start()
        try:
            client = ServiceClient("127.0.0.1", port, retry=None)
            with pytest.raises(TruncatedResponseError, match="truncated"):
                client.health()
        finally:
            thread.join(timeout=5)
            listener.close()


# ----------------------------------------------------------------------
class TestServeProcessSignals:
    """A real ``repro serve`` process, drain signal handlers installed."""

    def test_worker_crash_cleanup_does_not_trigger_drain(self, tmp_path):
        # Cleaning up after a crashed worker, the executor SIGTERMs the
        # surviving fork-workers; those inherit the parent's signal
        # wakeup fd and drain handlers, so without the pool initializer
        # resetting them the signal leaks into the parent's event loop
        # and spuriously drains the whole server (regression).
        import pathlib
        import subprocess
        import sys

        sock = str(tmp_path / "svc.sock")
        src = str(pathlib.Path(__file__).parents[1] / "src")
        env = dict(os.environ, REPRO_FAULTS="crash@1")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; import sys; "
                "sys.exit(main(['serve', '--socket', sys.argv[1], "
                "'--jobs', '2', '--no-cache']))",
                sock,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            client = ServiceClient(
                socket_path=sock, retry=TEST_RETRY, timeout=30
            )
            client.wait_ready()
            for i in range(3):  # request 1 crashes its worker
                body = client.route(
                    request_doc(small_problem(seed=70 + i), cache=False)
                )
                assert body["ok"], body
            stats = client.stats()
            assert stats["pool_rebuilds"] == 1, stats
            assert stats["errors"] == 0, stats
            assert proc.poll() is None, "server process died"
            client.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        assert proc.returncode == 0, out.decode()
        assert b"drained cleanly" in out, out.decode()


# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, tmp_path):
        plan = FaultPlan.parse("delay@0:0.4")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            result = {}

            def slow():
                client = ServiceClient("127.0.0.1", live.port, retry=None)
                result["body"] = client.route(request_doc(small_problem()))

            open_client = ServiceClient("127.0.0.1", live.port, retry=None)
            open_client.wait_ready()  # holds a kept-alive connection
            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)  # the slow request is admitted and computing
            drained = live.run_async(
                live.server.drain(live.asyncio_server, timeout=10.0)
            )
            thread.join(timeout=10)
            assert drained is True
            assert result["body"]["ok"], "in-flight work must finish"
            # new connections: the listener is gone
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", live.port), timeout=1)
            # requests on an already-open keep-alive connection: 503
            with pytest.raises(ReproError, match="503|draining|reach"):
                open_client.health()

    def test_drain_deadline_abandons_stuck_work(self, tmp_path):
        plan = FaultPlan.parse("delay@0:3.0")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), fault_plan=plan
        ) as live:
            def stuck_request():
                try:
                    ServiceClient(
                        "127.0.0.1", live.port, retry=None, timeout=10
                    ).route(request_doc(small_problem()))
                except ReproError:
                    pass  # drain abandons this request — expected

            thread = threading.Thread(target=stuck_request, daemon=True)
            thread.start()
            time.sleep(0.15)
            t0 = time.perf_counter()
            drained = live.run_async(
                live.server.drain(live.asyncio_server, timeout=0.2)
            )
            assert drained is False
            assert time.perf_counter() - t0 < 2.0


# ----------------------------------------------------------------------
class TestVerboseLog:
    def test_one_structured_line_per_request(self, tmp_path, capfd):
        with _LiveServer(cache_dir=str(tmp_path), verbose=True) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            client.route(request_doc(small_problem()))
        err = capfd.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("repro-serve ")]
        assert len(lines) == 2  # the healthz poll and the route
        route_line = lines[-1]
        for field in (
            "method=POST", "path=/route", "status=200", "mode=cold",
            "cache_hit=0", "elapsed_ms=", "queued=0", "inflight=",
        ):
            assert field in route_line, route_line


# ----------------------------------------------------------------------
class TestScriptedPlanAcceptance:
    """The issue's acceptance scenario: worker kill + injected delay +
    dropped connection against a pooled server — all requests complete,
    routings bit-identical to an undisturbed serial run, counters
    report the faults."""

    def test_chaos_plan_zero_client_visible_failures(self, tmp_path):
        problems = [small_problem(seed=40 + i) for i in range(6)]
        docs = [request_doc(p, cache=False) for p in problems]
        serial = []
        for doc in docs:  # the undisturbed serial reference run
            status, body = handle_request_doc(doc, use_cache=False)
            assert status == 200
            serial.append(body)
        plan = FaultPlan.parse("crash@1,delay@3:0.15,drop@4")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), use_cache=False, fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port, retry=TEST_RETRY)
            client.wait_ready()
            answers = [client.route(doc) for doc in docs]
            stats = client.stats()
        for got, want in zip(answers, serial):
            assert got["ok"] and got["valid"]
            assert json.dumps(got["routing"], sort_keys=True) == json.dumps(
                want["routing"], sort_keys=True
            )
            assert got["power"] == want["power"]
        assert stats["routed"] == len(docs)
        assert stats["pool_rebuilds"] == 1
        assert stats["drops"] == 1
        assert stats["timeouts"] == 0  # the delay stayed under the deadline
        assert live.server.fault_plan.pending() == 0  # every fault fired

    def test_concurrent_clients_zero_failures(self, tmp_path):
        """Four keep-alive clients, three requests each, while the plan
        kills a worker, stalls a compute and drops a connection: no
        client sees a failure and every answer is the serial one."""
        clients, per_client = 4, 3
        docs = [
            request_doc(small_problem(seed=400 + i), cache=False)
            for i in range(clients * per_client)
        ]
        serial = [handle_request_doc(doc, use_cache=False) for doc in docs]
        assert all(status == 200 for status, _ in serial)
        answers = [None] * len(docs)
        failures = []
        plan = FaultPlan.parse("crash@2,delay@5:0.08,drop@8")
        with _LiveServer(
            jobs=2, cache_dir=str(tmp_path), use_cache=False, fault_plan=plan
        ) as live:

            def drive(ci: int) -> None:
                try:
                    client = ServiceClient(
                        "127.0.0.1", live.port,
                        retry=TEST_RETRY.reseeded(ci + 1), timeout=60,
                    )
                    client.wait_ready()
                    for ri in range(per_client):
                        idx = ci * per_client + ri
                        answers[idx] = client.route(docs[idx])
                    client.close()
                except Exception as exc:  # noqa: BLE001 — what is counted
                    failures.append((ci, repr(exc)))

            threads = [
                threading.Thread(target=drive, args=(ci,))
                for ci in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = dict(live.server.stats)
        assert not failures
        for got, (_, want) in zip(answers, serial):
            assert got is not None
            assert got["routing"] == want["routing"]
            assert got["power"] == want["power"]
        assert live.server.fault_plan.pending() == 0
        assert stats["pool_rebuilds"] >= 1
        assert stats["drops"] >= 1
