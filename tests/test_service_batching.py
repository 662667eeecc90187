"""Micro-batching: parse interning, coalescing, bit-identity, probing.

The determinism contract under test: batching changes *when* work is
dispatched, never *what* is computed.  Batched, pooled and serial
evaluation must produce bit-identical response bodies (``elapsed_ms``,
a wall-clock transport field, is the only tolerated difference), across
the ``REPRO_NATIVE`` compute tiers.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading

import pytest

from repro import Communication, RoutingProblem
from repro.io.jsonio import ParseCache, problem_from_dict
from repro.native import native_module
from repro.service import (
    FaultPlan,
    MicroBatcher,
    ServiceClient,
    handle_batch_docs,
    handle_request_doc,
    probe_request_doc,
    route_incremental,
)
from repro.utils.validation import ReproError
from tests.test_native import _tier
from tests.test_service_server import _LiveServer, request_doc, small_problem

HAVE_NATIVE = native_module() is not None


def body_hex(body: dict) -> str:
    """A stable digest of a response body modulo wall-clock fields."""
    doc = {k: v for k, v in body.items() if k != "elapsed_ms"}
    wire = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(wire.encode()).hexdigest()


# ----------------------------------------------------------------------
class TestParseCache:
    def test_interns_equal_documents(self):
        doc = request_doc(small_problem())["problem"]
        cache = ParseCache()
        a = problem_from_dict(doc, cache)
        b = problem_from_dict(json.loads(json.dumps(doc)), cache)
        assert a is b
        assert cache.misses >= 1 and cache.hits >= 1

    def test_uncached_parses_stay_distinct(self):
        doc = request_doc(small_problem())["problem"]
        assert problem_from_dict(doc) is not problem_from_dict(doc)

    def test_distinct_documents_not_conflated(self):
        problem = small_problem()
        comms = list(problem.comms)
        comms[0] = Communication(comms[0].src, comms[0].snk, 321.0)
        other = RoutingProblem(problem.mesh, problem.power, comms)
        cache = ParseCache()
        a = problem_from_dict(request_doc(problem)["problem"], cache)
        b = problem_from_dict(request_doc(other)["problem"], cache)
        assert a is not b

    def test_failed_parse_not_memoized(self):
        cache = ParseCache()
        for _ in range(2):
            with pytest.raises(ReproError):
                problem_from_dict({"format": "bogus"}, cache)
        assert cache.hits == 0

    def test_unjsonable_document_falls_through(self):
        cache = ParseCache()
        calls = []
        value = cache.get("k", {"x": object()}, lambda d: calls.append(d) or 7)
        assert value == 7 and cache.hits == cache.misses == 0

    def test_lru_evicts_least_recently_used(self):
        cache = ParseCache(maxsize=2)
        docs = [{"n": i} for i in range(3)]
        built = []

        def build(doc):
            built.append(doc["n"])
            return doc["n"]

        cache.get("k", docs[0], build)
        cache.get("k", docs[1], build)
        assert cache.get("k", docs[0], build) == 0  # re-read: now newest
        cache.get("k", docs[2], build)  # full: evicts docs[1], the oldest
        assert cache.evictions == 1 and len(cache) == 2
        assert cache.get("k", docs[0], build) == 0  # survived
        assert built == [0, 1, 2]
        cache.get("k", docs[1], build)  # evicted: parsed again
        assert built == [0, 1, 2, 1]


# ----------------------------------------------------------------------
class TestBatchParity:
    def test_batch_matches_serial_mixed_docs(self, tmp_path):
        problem = small_problem()
        prev = route_incremental(problem).routing
        docs = [
            request_doc(problem),                      # cold
            request_doc(problem, prev),                # warm
            request_doc(problem, prev, seed=3),        # warm, other seed
            request_doc(small_problem(seed=5)),        # different instance
            {"problem": {"bogus": 1}},                 # invalid -> 400
            request_doc(problem, prev),                # repeat of the warm
        ]
        serial = [handle_request_doc(doc, use_cache=False) for doc in docs]
        batched = handle_batch_docs(docs, use_cache=False)
        assert [s for s, _ in batched] == [s for s, _ in serial]
        for (_, want), (_, got) in zip(serial, batched):
            assert body_hex(want) == body_hex(got)

    def test_identical_cacheoff_docs_share_one_evaluation(self, monkeypatch):
        from repro.service import batching

        calls = []
        real = batching.route_incremental
        monkeypatch.setattr(
            batching, "route_incremental",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        doc = request_doc(small_problem(), cache=False)
        dup = json.loads(json.dumps(doc))
        results = handle_batch_docs([doc, dup, doc])
        assert len(calls) == 1
        serial = handle_request_doc(doc)
        assert [s for s, _ in results] == [200, 200, 200]
        digests = {body_hex(body) for _, body in results}
        assert digests == {body_hex(serial[1])}
        # replicas are distinct top-level bodies, not aliased dicts
        assert results[0][1] is not results[1][1]

    def test_cacheon_duplicates_do_not_coalesce(self, tmp_path, monkeypatch):
        from repro.service import batching

        calls = []
        real = batching.route_incremental
        monkeypatch.setattr(
            batching, "route_incremental",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        doc = request_doc(small_problem())
        results = handle_batch_docs([doc, doc], cache_dir=str(tmp_path))
        # serial replay semantics: the first copy fills the store, the
        # second answers from it — exactly one compute, two bodies that
        # differ only in the cache_hit transport flag
        assert len(calls) == 1
        assert not results[0][1]["cache_hit"]
        assert results[1][1]["cache_hit"]

    def test_batch_respects_per_doc_cache_flags(self, tmp_path):
        doc = request_doc(small_problem())
        handle_request_doc(doc, cache_dir=str(tmp_path))
        results = handle_batch_docs(
            [doc, request_doc(small_problem(), cache=False)],
            cache_dir=str(tmp_path),
        )
        assert results[0][1]["cache_hit"]
        assert not results[1][1]["cache_hit"]

    @pytest.mark.skipif(
        not HAVE_NATIVE,
        reason="native extension not available (cffi/compiler)",
    )
    def test_batch_parity_across_compute_tiers(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        docs = [request_doc(problem, prev), request_doc(problem, seed=2)]
        digests = set()
        for tier in ("0", "1"):
            with _tier(tier):
                serial = [
                    body_hex(body)
                    for _, body in (
                        handle_request_doc(d, use_cache=False) for d in docs
                    )
                ]
                batch = [
                    body_hex(body)
                    for _, body in handle_batch_docs(docs, use_cache=False)
                ]
                assert serial == batch
                digests.add(tuple(batch))
        assert len(digests) == 1, "tiers must agree bit-for-bit"


# ----------------------------------------------------------------------
class TestProbe:
    def test_miss_returns_none(self, tmp_path):
        assert probe_request_doc(
            request_doc(small_problem()), cache_dir=str(tmp_path)
        ) is None

    def test_cache_optout_returns_none(self, tmp_path):
        doc = request_doc(small_problem())
        handle_request_doc(doc, cache_dir=str(tmp_path))
        opted_out = dict(doc, cache=False)
        assert probe_request_doc(
            opted_out, cache_dir=str(tmp_path)
        ) is None

    def test_hit_is_bit_identical_to_handler(self, tmp_path):
        doc = request_doc(small_problem())
        handle_request_doc(doc, cache_dir=str(tmp_path))
        probed = probe_request_doc(doc, cache_dir=str(tmp_path))
        assert probed is not None
        status, body = probed
        again = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert status == again[0] == 200
        assert body["cache_hit"]
        assert body_hex(body) == body_hex(again[1])

    def test_invalid_document_answers_400(self, tmp_path):
        status, body = probe_request_doc(
            {"problem": {"bogus": 1}}, cache_dir=str(tmp_path)
        )
        assert status == 400 and not body["ok"]


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_callers_share_one_batch(self):
        async def main():
            batches = []

            async def submit(docs):
                batches.append(list(docs))
                return [(200, {"doc": d}) for d in docs]

            batcher = MicroBatcher(submit, window=0.005, max_batch=8)
            results = await asyncio.gather(
                *(batcher.route(i) for i in range(5))
            )
            return batches, results

        batches, results = self._run(main())
        assert len(batches) == 1 and batches[0] == [0, 1, 2, 3, 4]
        assert [body["doc"] for _, body in results] == [0, 1, 2, 3, 4]
        assert results[3] == (200, {"doc": 3})

    def test_zero_window_still_coalesces_one_tick(self):
        async def main():
            batches = []

            async def submit(docs):
                batches.append(list(docs))
                return [(200, {}) for _ in docs]

            batcher = MicroBatcher(submit, window=0.0, max_batch=8)
            await asyncio.gather(*(batcher.route(i) for i in range(3)))
            return batches

        assert len(self._run(main())) == 1

    def test_max_batch_splits_submissions(self):
        async def main():
            batches = []

            async def submit(docs):
                batches.append(list(docs))
                return [(200, {}) for _ in docs]

            batcher = MicroBatcher(submit, window=0.05, max_batch=2)
            await asyncio.gather(*(batcher.route(i) for i in range(5)))
            return batches, batcher

        batches, batcher = self._run(main())
        assert [len(b) for b in batches] == [2, 2, 1]
        assert batcher.batches == 3 and batcher.batched == 5

    def test_submit_failure_fans_out(self):
        async def main():
            async def submit(docs):
                raise RuntimeError("pool exploded")

            batcher = MicroBatcher(submit, window=0.0)
            return await asyncio.gather(
                batcher.route(1), batcher.route(2), return_exceptions=True
            )

        results = self._run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_knob_validation(self):
        async def noop(docs):
            return []

        with pytest.raises(ReproError, match="window"):
            MicroBatcher(noop, window=-0.1)
        for bad in (0, True, "many"):
            with pytest.raises(ReproError, match="max_batch"):
                MicroBatcher(noop, window=0.0, max_batch=bad)


# ----------------------------------------------------------------------
class TestLiveBatchedServer:
    def _fan(self, port, docs, pool_size=4):
        """Fire ``docs`` concurrently through one pooled client."""
        client = ServiceClient("127.0.0.1", port, pool_size=pool_size)
        results = [None] * len(docs)

        def one(i):
            results[i] = client.route(docs[i])

        threads = [
            threading.Thread(target=one, args=(i,))
            for i in range(len(docs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        client.close()
        return results

    def test_batched_responses_bit_identical_to_serial(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        docs = [
            request_doc(problem, prev, seed=s, cache=False)
            for s in range(4)
        ]
        want = [
            body_hex(handle_request_doc(d, use_cache=False)[1])
            for d in docs
        ]
        with _LiveServer(use_cache=False, batch_window=0.02) as live:
            ServiceClient("127.0.0.1", live.port).wait_ready()
            got = self._fan(live.port, docs)
            stats = ServiceClient("127.0.0.1", live.port).stats()
        assert [body_hex(b) for b in got] == want
        assert all(b["ok"] for b in got)
        assert stats["batched"] == 4
        assert 1 <= stats["batches"] <= 4
        assert stats["routed"] == 4

    def test_cache_hits_skip_the_batch(self, tmp_path):
        problem = small_problem()
        hit_doc = request_doc(problem)
        miss_docs = [request_doc(problem, seed=s) for s in (1, 2)]
        with _LiveServer(
            cache_dir=str(tmp_path), batch_window=0.02
        ) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            first = client.route(hit_doc)  # fills the cache (batched)
            assert not first["cache_hit"]
            results = self._fan(live.port, [hit_doc] + miss_docs)
            stats = client.stats()
        assert results[0]["cache_hit"]
        # the hit replays the cached computation bit-for-bit (only the
        # cache_hit transport flag flipped relative to the filling miss)
        assert body_hex({**results[0], "cache_hit": None}) == \
            body_hex({**first, "cache_hit": None})
        assert all(not r["cache_hit"] for r in results[1:])
        # the hit was answered inline: only the misses occupied slots
        assert stats["batched"] == 1 + len(miss_docs)
        assert stats["cache_hits"] == 1

    def test_faulted_requests_bypass_the_batcher(self, tmp_path):
        plan = FaultPlan.parse("crash@0")
        with _LiveServer(
            jobs=2, use_cache=False, batch_window=0.02, fault_plan=plan
        ) as live:
            client = ServiceClient("127.0.0.1", live.port)
            client.wait_ready()
            body = client.route(request_doc(small_problem(), cache=False))
            stats = client.stats()
        assert body["ok"] and body["valid"]
        assert stats["pool_rebuilds"] == 1
        assert stats["batched"] == 0  # the faulted request went solo

    def test_pooled_batched_matches_inline_batched(self):
        docs = [
            request_doc(small_problem(), seed=s, cache=False)
            for s in range(3)
        ]
        digests = []
        for jobs in (1, 2):
            with _LiveServer(
                jobs=jobs, use_cache=False, batch_window=0.02
            ) as live:
                ServiceClient("127.0.0.1", live.port).wait_ready()
                digests.append(
                    [body_hex(b) for b in self._fan(live.port, docs)]
                )
        assert digests[0] == digests[1]

    def test_server_batching_knob_validation(self):
        from repro.service import RoutingServer

        with pytest.raises(ReproError, match="batch_window"):
            RoutingServer(batch_window=-1.0)
        with pytest.raises(ReproError, match="max_batch"):
            RoutingServer(batch_window=0.01, max_batch=0)
