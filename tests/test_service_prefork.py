"""Prefork front: stats board, the client's connection, live shard fleet.

The live tests drive ``repro serve --shards 2`` as a real subprocess
(fork + SO_REUSEPORT need a process of their own), kill a shard to
watch the supervisor restart it without losing aggregate counters, and
SIGTERM the supervisor expecting a clean fan-out drain (exit 0).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import ServiceClient, StatsBoard, run_prefork
from repro.service.client import RetryPolicy
from repro.service.prefork import ShardServer
from repro.utils.validation import ReproError
from tests.test_service_server import request_doc, small_problem


# ----------------------------------------------------------------------
class TestStatsBoard:
    def test_write_load_roundtrip(self, tmp_path):
        board = StatsBoard(str(tmp_path))
        board.write(0, {"requests": 3, "routed": 2})
        assert board.load(0) == {"requests": 3, "routed": 2}
        assert board.load(7) == {}

    def test_aggregate_sums_counters(self, tmp_path):
        board = StatsBoard(str(tmp_path))
        board.write(0, {"requests": 3, "routed": 2, "ok": True})
        board.write(1, {"requests": 5, "errors": 1})
        totals, per_shard = board.aggregate()
        assert totals == {"requests": 8, "routed": 2, "errors": 1}
        assert per_shard["0"]["requests"] == 3
        assert per_shard["1"]["errors"] == 1
        assert "ok" not in totals  # booleans are not counters

    def test_torn_file_reads_as_empty(self, tmp_path):
        board = StatsBoard(str(tmp_path))
        with open(board.path(0), "w") as fh:
            fh.write('{"requests": ')
        assert board.load(0) == {}
        assert board.aggregate() == ({}, {"0": {}})

    def test_shard_ids_ignores_foreign_files(self, tmp_path):
        board = StatsBoard(str(tmp_path))
        board.write(2, {})
        board.write(0, {})
        (tmp_path / "shard-x.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("hi")
        assert board.shard_ids() == [0, 2]

    def test_restarted_shard_resumes_baseline(self, tmp_path):
        board = StatsBoard(str(tmp_path))
        board.write(1, {"requests": 10, "routed": 4})
        shard = ShardServer(shard_id=1, board=board)
        shard.stats["requests"] += 2
        snap = shard.snapshot()
        assert snap["requests"] == 12
        assert snap["routed"] == 4


# ----------------------------------------------------------------------
class TestClientPool:
    def test_single_connection_default_unchanged(self):
        """Threads sharing one client take turns on its one connection."""
        from tests.test_service_server import _LiveServer

        with _LiveServer(use_cache=False) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            answers = []

            def poll():
                for _ in range(3):
                    answers.append(client.health()["ok"])

            threads = [threading.Thread(target=poll) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert answers == [True] * 12
            assert client.connections_opened == 1
            client.close()


# ----------------------------------------------------------------------
class TestRunPreforkValidation:
    def test_shards_must_be_positive_int(self):
        for bad in (0, -2, True, 1.5):
            with pytest.raises(ReproError, match="shards"):
                run_prefork(shards=bad)


# ----------------------------------------------------------------------
def _spawn_fleet(*extra):
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--shards", "2", "--port", "0", "--no-cache", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    m = re.search(r"http://[\d.]+:(\d+)", line)
    if m is None:  # startup failed: surface whatever the process said
        proc.kill()
        rest = proc.stdout.read()
        raise AssertionError(f"no listening line: {line!r} {rest!r}")
    return proc, int(m.group(1))


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork needs os.fork"
)
class TestLiveFleet:
    def test_shards_restart_and_stats_aggregate(self):
        proc, port = _spawn_fleet()
        try:
            client = ServiceClient(
                "127.0.0.1", port, retry=RetryPolicy(seed=11)
            )
            client.wait_ready()
            doc = request_doc(small_problem(), cache=False)
            assert client.route(doc)["ok"]

            health = client.health()
            assert health["shard"] in (0, 1)
            victim = health["pid"]
            assert victim != proc.pid

            time.sleep(0.6)  # two flush intervals: the board is current
            before = client.stats()
            assert set(before["per_shard"]) == {"0", "1"}
            assert before["requests"] >= 2

            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10
            while time.time() < deadline:
                time.sleep(0.3)
                try:
                    if client.health()["pid"] not in (victim,):
                        break
                except ReproError:
                    pass
            client.close()
            after = client.stats()
            # the restarted shard resumed its predecessor's counters:
            # the fleet aggregate kept growing, nothing was lost
            assert set(after["per_shard"]) == {"0", "1"}
            assert after["requests"] >= before["requests"]
            assert client.route(doc)["ok"]
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "restarting" in out

    def test_sigterm_drains_cleanly(self):
        proc, port = _spawn_fleet()
        client = ServiceClient("127.0.0.1", port)
        client.wait_ready()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out

    def test_sigterm_during_startup_drains_cleanly(self):
        # SIGTERM right after the listening line reaches shards that are
        # still starting; each must drain rather than hang or die
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FAULTS", None)
        for attempt in range(5):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--shards", "2", "--jobs", "1", "--no-cache",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
                start_new_session=True,
            )
            try:
                line = proc.stdout.readline()
                assert "listening" in line, line
                proc.send_signal(signal.SIGTERM)
                try:
                    out, _ = proc.communicate(timeout=20)
                except subprocess.TimeoutExpired:
                    pytest.fail(f"run {attempt}: no exit 20 s after SIGTERM")
                assert proc.returncode == 0, (attempt, out)
            finally:
                try:  # a failing run leaves no supervisor or shard behind
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
                proc.stdout.close()

    def test_unix_socket_fleet(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--shards", "2", "--socket", path, "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert f"unix:{path}" in line, line
            client = ServiceClient(
                socket_path=path, retry=RetryPolicy(seed=3)
            )
            client.wait_ready()
            body = client.route(request_doc(small_problem(), cache=False))
            assert body["ok"] and body["valid"]
            assert client.health()["shard"] in (0, 1)
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert not os.path.exists(path)
