"""``serve-churn`` and ``serve-repeat``: a real ``repro serve`` under load.

A run starts ``repro serve --port 0 --jobs <nproc> --cache-dir <fresh>``
(every other flag at its default) a few times only to time its start,
then once per chunk of the run, and on each chunk's server

1. sends an untimed warm-up: every pool document once (for
   ``serve-repeat`` this fills the store, so later requests hit);
2. runs an open loop at the workload's fixed rate — ``p50_ms`` is the
   median latency, over all chunks, from each request's due time;
3. runs a closed loop with ``2 * nproc`` busy connections — its
   completions per second are the service's capacity, and ``ops_per_s``
   is the median over the servers;

then checks every response body against an in-process
``handle_request_doc`` replay of the same documents on a fresh store
(``elapsed_ms`` excluded).  ``serve-churn`` replays an evenly spaced
sample, ``serve-repeat`` all of them.

The traced run adds the ``/stats`` counters, a single-connection light
load pass, a latency-limit search on a geometric ladder of rates, and
in-process ``handle_request_doc`` calls on the light-load documents with
spans around the calls into each layer.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from harness import BenchError, RssSampler, median, nproc, percentile
from loadgen import HttpConn, Sample, closed_loop, get_json, open_loop
from serve_docs import (Server, churn_pool, churn_request, encode,
                        fresh_store, strip_elapsed, zipf_pick)
from tracing import Tracer, mean_self_ms


@dataclass(frozen=True)
class ServeSpec:
    name: str
    rate: float  # the fixed open-loop rate (requests/s)
    limit_ms: float  # p99 latency limit of the ladder search
    repeat: bool  # cache hits (True) or distinct-seed misses (False)


CHURN = ServeSpec("serve-churn", rate=30.0, limit_ms=250.0, repeat=False)
REPEAT = ServeSpec("serve-repeat", rate=180.0, limit_ms=25.0, repeat=True)

#: share of the measured time spent in the fixed-rate open loop (the
#: rest is the closed-loop capacity phase)
FIXED_SHARE = 0.6
#: closed-loop connections per core: enough to keep the worker pool's
#: queue non-empty, so client-side jitter cannot idle a worker
CAPACITY_CONNS = 2
#: one server instance (one fixed-rate chunk and one capacity chunk) per
#: this many seconds
CHUNK_SECONDS = 5
#: servers started and stopped before each chunk only to time their
#: start, so ``setup_s`` is a median over more starts than chunks
EXTRA_STARTS = 2
#: churn responses replayed in-process per phase (two phases per server)
CHECK_SAMPLE = 4
#: the generator counts as late (run invalid) beyond this p99 lag
LAG_LIMIT_MS = 5.0
#: ladder of the latency-limit search: rates spec.rate * STEP**k
LADDER_STEP = 1.05
#: seconds per ladder rung, and the time after which the search stops
RUNG_SECONDS = 4.0
SEARCH_SECONDS = 60.0
#: requests of the light-load pass / traced replay, and replay rounds
#: (keyed by ``ServeSpec.repeat``: cheap cache hits need more rounds for
#: a steady tracing-overhead figure)
LIGHT_REQUESTS = 24
REPLAY_ROUNDS = {False: 2, True: 10}
#: request streams are index ranges of one per-seed sequence: stream
#: ``s`` starts at ``s * STREAM_STRIDE`` and a chunk's part of it at
#: ``c * CHUNK_STRIDE`` past that, so churn requests never repeat a seed
FIXED, WARM, CAPACITY, LIGHT, LADDER = range(5)
STREAM_STRIDE = 10**7
CHUNK_STRIDE = 10**6

HOST = "127.0.0.1"


class Traffic:
    """The request stream of one serve workload for one seed.

    Request ``i`` is a pure function of ``(seed, i)``, so a loop can make
    as many as the server can take and the checker can rebuild any of
    them afterwards.
    """

    def __init__(self, spec: ServeSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.pool = churn_pool(seed)
        self._encoded = [encode(d) for d in self.pool]

    def doc(self, i: int) -> Dict:
        if self.spec.repeat:
            return self.pool[zipf_pick(len(self.pool), self.seed, i)]
        return churn_request(self.pool, self.seed, i)

    def payload(self, i: int) -> bytes:
        if self.spec.repeat:
            return self._encoded[zipf_pick(len(self.pool), self.seed, i)]
        return encode(self.doc(i))

    def stream(self, stream: int, chunk: int = 0) -> Callable[[int], bytes]:
        """Payloads of one stream: request ``i`` of the loop is request
        ``first + i`` of the sequence."""
        first = stream * STREAM_STRIDE + chunk * CHUNK_STRIDE
        return lambda i: self.payload(first + i)

    def docs(self, stream: int, chunk: int,
             samples: List[Sample]) -> List[Dict]:
        """The documents behind a loop's samples."""
        first = stream * STREAM_STRIDE + chunk * CHUNK_STRIDE
        return [self.doc(first + s.index) for s in samples]

    def warmup(self, instance: int) -> List[Dict]:
        """Untimed first requests of a server: every pool document once
        (``serve-repeat``: this fills the store), so lazy per-process
        set-up is done before timing."""
        if self.spec.repeat:
            return list(self.pool)
        n = len(self.pool)
        first = WARM * STREAM_STRIDE + instance * n
        return [self.doc(first + i) for i in range(n)]


def _send_sequential(port: int, docs: List[Dict],
                     gap: float = 0.0) -> List[Sample]:
    conn = HttpConn(HOST, port)
    out = []
    try:
        for i, doc in enumerate(docs):
            t0 = time.perf_counter()
            try:
                status, body = conn.request("POST", "/route", encode(doc))
            except OSError:
                status, body = 0, b""
            out.append(Sample(i, t0, t0, t0, time.perf_counter(), status,
                              body))
            if gap:
                time.sleep(gap)
    finally:
        conn.close()
    return out


class Checker:
    """Served bodies vs an in-process replay on a fresh store."""

    def __init__(self, traffic: Traffic, tag: str):
        from repro.service import handle_request_doc

        self.handle = handle_request_doc
        self.traffic = traffic
        self.store = str(fresh_store(tag))
        self.expected: Dict[str, Tuple[str, str]] = {}
        if traffic.spec.repeat:
            for doc in traffic.pool:
                miss = strip_elapsed(self._replay(doc))
                hit = strip_elapsed(self._replay(doc))
                self.expected[strip_elapsed(doc)] = (miss, hit)

    def _replay(self, doc: Dict) -> Dict:
        status, body = self.handle(doc, cache_dir=self.store)
        if status != 200:
            raise RuntimeError(f"in-process replay answered {status}")
        return body

    def mismatches(self, docs: List[Dict], samples: List[Sample],
                   fill: bool = False) -> int:
        """Responses (of 200s checked) that differ from the replay."""
        bad = 0
        if self.traffic.spec.repeat:
            for doc, s in zip(docs, samples):
                if s.status != 200:
                    continue
                miss, hit = self.expected[strip_elapsed(doc)]
                want = miss if fill else hit
                bad += strip_elapsed(json.loads(s.body)) != want
            return bad
        ok = [(d, s) for d, s in zip(docs, samples) if s.status == 200]
        step = max(1, len(ok) // CHECK_SAMPLE)
        for doc, s in ok[::step][:CHECK_SAMPLE]:
            want = strip_elapsed(self._replay(doc))
            bad += strip_elapsed(json.loads(s.body)) != want
        return bad


def tally(checker: Checker, phases) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over ``(docs, samples)`` phases.

    A transport error or any non-200 answer is a failed attempt; a 200
    whose body differs from the in-process replay is an output mismatch.
    """
    attempted = failed = 0
    problems = []
    for docs, samples in phases:
        attempted += len(samples)
        failed += sum(s.status != 200 for s in samples)
        bad = checker.mismatches(docs, samples)
        if bad:
            problems.append(f"{bad} response bodies differ from the "
                            "in-process replay")
    return attempted, failed, problems


def _latency_stats(samples: List[Sample]) -> Dict[str, float]:
    lat = [s.latency * 1e3 for s in samples]
    out = {
        "samples": len(samples),
        "p50_ms": percentile(lat, 50),
        "lag_p50_ms": percentile([s.lag * 1e3 for s in samples], 50),
        "lag_p99_ms": percentile([s.lag * 1e3 for s in samples], 99),
        "conn_wait_p50_ms": percentile(
            [s.conn_wait * 1e3 for s in samples], 50),
    }
    if len(samples) >= 1000:
        out["p99_ms"] = percentile(lat, 99)
    return out


def measure(spec: ServeSpec, seed: int, seconds: float, env,
            traced: bool) -> Dict:
    """One serve run; with ``traced`` also the per-layer measurements.

    The run is split into chunks, each on a freshly started server: the
    untimed warm-up, a fixed-rate open loop and a closed-loop capacity
    burst.  Spreading the measurement over several server instances and
    over the whole run keeps one unlucky instance or one slow stretch of
    a shared machine from setting a run's figures.  ``setup_s`` is the
    median start time of the chunks' servers and of ``EXTRA_STARTS``
    more before each chunk.
    """
    traffic = Traffic(spec, seed)
    checker = Checker(traffic, f"{spec.name}-check")
    problems: List[str] = []
    info: Dict[str, object] = {}
    phases: List[Tuple[List[Dict], List[Sample]]] = []
    chunks = max(1, int(seconds // CHUNK_SECONDS))
    fixed_s = seconds * FIXED_SHARE
    if traced:  # enough samples for a p99
        fixed_s = max(fixed_s, 1000 / spec.rate + 0.5)
    cap_s = seconds * (1 - FIXED_SHARE) / chunks
    n_fixed = int(spec.rate * fixed_s / chunks)
    fixed: List[Sample] = []
    setups: List[float] = []
    codes: List[int] = []
    stats: Dict[str, int] = {}
    capacities: List[float] = []
    with RssSampler([]) as rss:
        for c in range(chunks):
            for k in range(EXTRA_STARTS):
                server = Server(env, nproc(), f"start{k}").start()
                setups.append(server.setup_s)
                codes.append(server.stop())
            server = Server(env, nproc(), f"serve{c}").start()
            setups.append(server.setup_s)
            rss.roots = [server.proc.pid]
            try:
                warm_docs = traffic.warmup(c)
                warm = closed_loop(HOST, server.port,
                                   lambda i: encode(warm_docs[i]), nproc(),
                                   limit=len(warm_docs))
                if any(s.status != 200 for s in warm):
                    problems.append("warm-up/fill requests failed")
                elif spec.repeat and checker.mismatches(warm_docs, warm,
                                                        fill=True):
                    problems.append("fill responses differ from the replay")
                samples = open_loop(HOST, server.port,
                                    traffic.stream(FIXED, c), n_fixed,
                                    spec.rate, nproc())
                phases.append((traffic.docs(FIXED, c, samples), samples))
                fixed.extend(samples)
                samples = closed_loop(HOST, server.port,
                                      traffic.stream(CAPACITY, c),
                                      CAPACITY_CONNS * nproc(), cap_s)
                if len(samples) >= CHUNK_STRIDE:
                    raise BenchError("the capacity burst overran its "
                                     "request stream")
                phases.append((traffic.docs(CAPACITY, c, samples), samples))
                # completions inside the fixed window only: requests
                # still in flight at its end would stretch it by up to
                # one (possibly cold) service time
                start = min((x.sent for x in samples), default=0.0)
                done = [x.done for x in samples
                        if x.status == 200 and x.done <= start + cap_s]
                if done:
                    capacities.append(len(done) / (max(done) - start))
                if traced and c == chunks - 1:
                    info.update(_traced_server_phases(
                        spec, traffic, server, _latency_stats(fixed)))
                for k, v in get_json(HOST, server.port, "/stats").items():
                    if isinstance(v, int) and not isinstance(v, bool):
                        stats[k] = stats.get(k, 0) + v
            finally:
                codes.append(server.stop())
    for code in codes:
        if code != 0:
            problems.append(f"repro serve exited {code} on SIGTERM")
    attempted, failed, bad = tally(checker, phases)
    problems.extend(bad)
    fixed_stats = _latency_stats(fixed)
    info["fixed"] = fixed_stats
    info["capacities"] = capacities
    info["setups"] = setups
    info["stats"] = stats
    info["servers"] = chunks
    info["loadgen_valid"] = fixed_stats["lag_p99_ms"] <= LAG_LIMIT_MS
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss.peak_mb,
            "ops_per_s": median(capacities) if capacities else 0.0,
            "p50_ms": fixed_stats["p50_ms"],
        },
        "info": info,
        "traffic": traffic,
    }


def run(spec: ServeSpec, seed: int, seconds: float, env) -> Dict:
    return measure(spec, seed, seconds, env, traced=False)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _rung_ok(spec: ServeSpec, samples: List[Sample], rate: float) -> bool:
    """A rate meets the limit: p99 within it, no failure, no backlog."""
    if any(s.status != 200 for s in samples):
        return False
    lat = [s.latency * 1e3 for s in samples]
    if percentile(lat, 99) > spec.limit_ms:
        return False
    # a growing backlog finishes the rung late: completions fall short
    # of the offered rate
    span = max(s.done for s in samples) - samples[0].due
    return len(samples) / span >= 0.95 * rate


def _ladder_search(spec: ServeSpec, traffic: Traffic, port: int,
                   rung0_ok: bool) -> Tuple[float, List]:
    """Highest ladder rate meeting the limit (gallop, then bisect)."""
    tried: Dict[int, bool] = {0: rung0_ok}
    give_up = time.perf_counter() + SEARCH_SECONDS

    def ok(k: int) -> bool:
        if k not in tried:
            if time.perf_counter() > give_up:
                return False
            rate = spec.rate * LADDER_STEP ** k
            n = max(20, int(rate * RUNG_SECONDS))
            # every rung is a chunk of its own in the ladder stream
            samples = open_loop(HOST, port,
                                traffic.stream(LADDER, len(tried)), n, rate,
                                nproc())
            tried[k] = _rung_ok(spec, samples, rate)
        return tried[k]

    step = 1 if rung0_ok else -1
    lo = hi = 0
    while ok(hi) == rung0_ok and abs(hi) < 64:
        lo, hi = hi, hi + step
        step *= 2
    if not rung0_ok:  # walking down: hi passes, lo fails
        lo, hi = hi, lo
    # invariant: ok(lo) and not ok(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return spec.rate * LADDER_STEP ** lo, sorted(tried.items())


def _traced_server_phases(spec: ServeSpec, traffic: Traffic,
                          server: Server, fixed_stats) -> Dict:
    """Light-load pass and ladder search against the live server."""
    first = LIGHT * STREAM_STRIDE
    light_docs = [traffic.doc(first + i) for i in range(LIGHT_REQUESTS)]
    light = _send_sequential(server.port, light_docs, gap=0.02)
    unloaded = percentile([s.latency * 1e3 for s in light], 50)
    p99 = fixed_stats.get("p99_ms")
    rung0 = p99 is not None and p99 <= spec.limit_ms
    sustained, rungs = _ladder_search(spec, traffic, server.port, rung0)
    return {"light_docs": light_docs, "light": light,
            "unloaded_p50_ms": unloaded, "sustained_rps": sustained,
            "ladder": rungs}


def _span_targets():
    """The attributes ``handle_request_doc`` looks up, and their span
    names; a cache load is named by its outcome, a route by its path."""
    from repro.service import batching, warmstart

    return [
        (batching, "handle_request_doc", "service.batching.handle"),
        (batching, "parse_request_doc", "service.batching.parse"),
        (batching, "problem_from_dict", "io.problem_parse"),
        (batching, "routing_from_dict", "io.routing_parse"),
        (batching.ParsedRequest, "key", "service.cache.key"),
        (batching, "load_cached",
         lambda _, got: ("service.cache.load_miss" if got is None
                         else "service.cache.load_hit")),
        (batching, "route_incremental",
         lambda args, _: ("service.warmstart.cold" if args[1] is None
                          else "service.warmstart.warm")),
        (warmstart, "match_previous", "service.warmstart.match"),
        (warmstart, "repair_state", "service.warmstart.repair"),
        (warmstart, "finalize_outcomes", "core.evaluate"),
        (batching, "outcome_to_doc", "io.outcome_doc"),
        (batching, "save_cached", "service.cache.save"),
    ]


def _in_process(docs: List[Dict], store: str,
                tracer: Optional[Tracer]) -> Tuple[List[str], List[float]]:
    """What the server does for each request around its pool round
    trip: decode the body, ``handle_request_doc``, encode the answer.

    Returns the canonical bodies (``elapsed_ms`` excluded) and each
    request's time in ms.
    """
    from repro.service import batching

    def span(name: str):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    bodies, times = [], []
    for i, doc in enumerate(docs):
        raw = encode(doc)
        if tracer:
            tracer.request_id = f"r{i}"
        t0 = time.perf_counter()
        with span("serve.request"):
            with span("io.json_decode"):
                doc = json.loads(raw)
            _, body = batching.handle_request_doc(doc, cache_dir=store)
            with span("io.encode"):
                json.dumps(body, separators=(",", ":")).encode()
        times.append((time.perf_counter() - t0) * 1e3)
        bodies.append(strip_elapsed(body))
    if tracer:
        tracer.request_id = None
    return bodies, times


def _replay_store(traffic: Traffic, tag: str) -> str:
    """A fresh store, pre-filled with the pool for ``serve-repeat``."""
    from repro.service import handle_request_doc

    store = str(fresh_store(tag))
    if traffic.spec.repeat:
        for doc in traffic.pool:
            handle_request_doc(doc, cache_dir=store)
    return store


def traced(spec: ServeSpec, seed: int, seconds: float, env) -> Dict:
    base = measure(spec, seed, seconds, env, traced=True)
    info = base["info"]
    traffic = base["traffic"]
    docs = info["light_docs"]
    problems = list(base["problems"])
    # warm-up: first-use costs of this process
    _in_process(docs, _replay_store(traffic, f"{spec.name}-plain"), None)
    served = [strip_elapsed(json.loads(s.body)) for s in info["light"]
              if s.status == 200]
    tracer = Tracer()
    traced_s = 0.0
    handle_ms: List[float] = []
    # traced and untraced replays alternate, so drift hits both sides
    for _ in range(REPLAY_ROUNDS[spec.repeat]):
        store = _replay_store(traffic, f"{spec.name}-traced")
        with tracer.wrapped(_span_targets()):
            bodies, times = _in_process(docs, store, tracer)
        traced_s += sum(times) / 1e3
        if served != bodies:
            problems.append("traced replay differs from the served bodies")
        store = _replay_store(traffic, f"{spec.name}-plain")
        handle_ms += _in_process(docs, store, None)[1]
    untraced_s = sum(handle_ms) / 1e3
    table = tracer.self_times()
    stats = info["stats"]
    fixed = info["fixed"]
    routed = stats.get("routed", 0)
    pc = stats.get("parse_cache_hits", 0) + stats.get("parse_cache_misses",
                                                      0)
    sums = {"rerouted": 0, "polish_flips": 0, "relocations": 0}
    for body in bodies:
        for k in sums:
            sums[k] += json.loads(body)["stats"][k]
    layer = {
        "io.json_decode_ms": mean_self_ms(table, "io.json_decode"),
        "io.problem_parse_ms": mean_self_ms(table, "io.problem_parse"),
        "io.routing_parse_ms": mean_self_ms(table, "io.routing_parse"),
        "io.outcome_doc_ms": mean_self_ms(table, "io.outcome_doc"),
        "io.encode_ms": mean_self_ms(table, "io.encode"),
        "service.batching.parse_ms": mean_self_ms(
            table, "service.batching.parse"),
        "service.batching.handle_ms": median(handle_ms),
        "service.cache.key_ms": mean_self_ms(table, "service.cache.key"),
        "service.cache.load_hit_ms": mean_self_ms(
            table, "service.cache.load_hit"),
        "service.cache.load_miss_ms": mean_self_ms(
            table, "service.cache.load_miss"),
        "service.cache.save_ms": mean_self_ms(table, "service.cache.save"),
        "service.cache.hit_frac": (stats.get("cache_hits", 0) / routed
                                   if routed else 0.0),
        "io.parse_cache_hit_frac": (stats.get("parse_cache_hits", 0) / pc
                                    if pc else 0.0),
        "service.warmstart.match_ms": mean_self_ms(
            table, "service.warmstart.match"),
        "service.warmstart.repair_ms": mean_self_ms(
            table, "service.warmstart.repair"),
        "service.warmstart.cold_ms": mean_self_ms(
            table, "service.warmstart.cold"),
        "core.evaluate_ms": mean_self_ms(table, "core.evaluate"),
        "service.warmstart.rerouted": sums["rerouted"],
        "service.warmstart.polish_flips": sums["polish_flips"],
        "service.warmstart.relocations": sums["relocations"],
        "service.server.front_ms": info["unloaded_p50_ms"]
        - median(handle_ms),
        "service.server.wait_ms": fixed["p50_ms"] - info["unloaded_p50_ms"],
        "serve.p99_ms": fixed.get("p99_ms", 0.0),
        "serve.sustained_rps": info["sustained_rps"],
        "loadgen.lag_ms": fixed["lag_p99_ms"],
        "loadgen.conn_wait_ms": fixed["conn_wait_p50_ms"],
    }
    for k in ("requests", "errors", "rejected", "timeouts",
              "pool_rebuilds"):
        layer[f"service.server.{k}"] = stats.get(k, 0)
    for k in ("batches", "batched"):
        layer[f"service.batching.{k}"] = stats.get(k, 0)
    return {
        "attempted": base["attempted"],
        "failed": base["failed"],
        "problems": problems,
        "layer": layer,
        "tracer": tracer,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "e2e": base["metrics"],
        "info": info,
        "root": "serve.request",
    }
