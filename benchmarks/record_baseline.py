"""Record a heuristic-speed baseline as ``BENCH_<n>.json``.

Usage::

    python benchmarks/record_baseline.py [n]
                                         [--suite heuristic|meta|noc|churn|soak|sat]
                                         [--rounds R] [--before FILE]
                                         [--sat-gate X]

Suites:

* ``heuristic`` (default) — the paper's constructive heuristics
  (XY/SG/IG/TB/XYI/PR) on the standard E-SPEED instance (8×8 chip, 40
  mixed communications, the instance of
  ``benchmarks/test_heuristic_speed.py``), solving the same problem
  object repeatedly.
* ``meta`` (the **M-SPEED** suite) — the stochastic metaheuristics
  (GA/SA/TABU) at their default search budgets on the E-SPEED instance,
  solving a freshly built problem every round so per-instance caches
  (kernel, init routings, DAGs) are paid honestly inside each timed
  solve.
* ``noc`` (the **N-SPEED** suite) — one load–latency point per offered
  fraction (4000 cycles, Bernoulli arrivals) of a provisioned PR routing
  on the standard N-SPEED instance (8×8 chip, 12 mixed communications),
  timed on the array flit engine *and* the reference simulator in the
  same run.  The reference timings are embedded as ``before_median_ms``
  with per-point speedups automatically (no ``--before`` needed), and
  the two engines' curves are asserted bit-identical while timing.
* ``churn`` (the **E-CHURN** suite) — the routing service's warm-start
  repair vs a cold solve along a churn trace (rate drift, arrivals,
  departures, link failures; see :mod:`repro.scenarios.churn`).  Each
  request is timed both ways; ``median_ms`` holds the warm-side SLA
  latency percentiles (p50/p95/p99 over every timed request), the cold
  side is embedded as ``before_median_ms`` with per-percentile speedups
  automatically.  The warm chain's total routed power is asserted
  equal-or-better than the cold side's, and an exact resubmission is
  asserted to come back as an artifact-store cache hit.
* ``soak`` (the **E-SOAK** suite) — a chaos soak of the routing service
  under its resilience layer: every round boots a fresh pooled server
  with a scripted fault plan (a worker crash, an injected compute delay,
  a dropped connection — :class:`repro.service.FaultPlan`) and drives it
  with concurrent keep-alive clients on seeded retry policies.
  ``median_ms`` holds the client-observed end-to-end latency
  percentiles (p50/p99 over every request of every round, retries
  included — chaos tail latency is the point).  While timing, the run
  gates on *zero client-visible failures*, on every response being
  bit-identical to an undisturbed serial
  :func:`~repro.service.handle_request_doc` run of the same documents,
  and on the fault plan being fully consumed (``pool_rebuilds``/
  ``drops`` observed); a deterministic backpressure probe (one slot, no
  queue, a delay fault pinning the slot) asserts the 429 + Retry-After
  path and that a retrying client rides it out.  The soaked server runs
  with micro-batching enabled, so the chaos semantics (faulted requests
  bypass the batcher) are exercised under coalescing too.
* ``sat`` (the **E-SAT** suite) — the service scaling bench: real
  ``repro serve`` subprocesses in three configurations (a single
  unbatched pooled front — the pre-scaling deployment — a single
  batched front, and a ``--shards 2`` prefork batched front), each
  swept with thread fleets of 4/16/48 concurrent clients (past the
  fleets' ``--max-inflight 32``) firing churn-style warm requests in
  synchronized waves (every client re-requesting the same deployment
  update at once — the concurrent-duplicate regime coalescing
  targets).
  ``median_ms`` holds per-(config, clients) p50/p99 latencies; RPS
  tables, the saturated RPS per config and the batched+sharded vs
  unbatched speedup ride in extras.  Gates while timing: every
  response bit-identical to a serial
  :func:`~repro.service.handle_request_doc` run of the same documents,
  zero client-visible failures, batches actually observed on the
  batched configs, every server exiting 0 after SIGTERM, and
  saturated batched+sharded throughput at least ``--sat-gate`` times
  (default 2.0) the unbatched single front **measured in the same
  run** (same machine, same minute — pass ``--sat-gate 0`` on shared
  CI runners where absolute throughput ratios flake).

``--before FILE`` embeds a previously recorded run of the same suite as
``before_median_ms`` and computes per-heuristic speedups — record the
file from the pre-change commit (e.g. in a ``git worktree``), then record
the after side from the working tree.  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import re
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import Mesh, PowerModel, RoutingProblem  # noqa: E402
from repro.heuristics import (  # noqa: E402
    PAPER_HEURISTICS,
    GeneticRouting,
    SimulatedAnnealing,
    TabuRouting,
    get_heuristic,
)
from repro.workloads import uniform_random_workload  # noqa: E402

#: the E-SPEED instance of benchmarks/test_heuristic_speed.py
MESH_SHAPE = (8, 8)
NUM_COMMS = 40
RATE_RANGE = (100.0, 2500.0)
WORKLOAD_SEED = 99
ROUNDS = 15
WARMUP = 3

#: the N-SPEED instance: a PR-provisioned 8×8 routing under load sweep
NOC_NUM_COMMS = 12
NOC_RATE_RANGE = (100.0, 1200.0)
NOC_WORKLOAD_SEED = 0
NOC_FRACTIONS = (0.5, 1.0, 2.0)
NOC_CYCLES = 4000
NOC_WARMUP = 800
NOC_SIM_SEED = 20260611

#: the E-CHURN instance: a churn trace on the paper-baseline scenario at
#: service utilisation (half the paper's at-capacity rates, so strict
#: routed power is finite and comparable on both sides)
CHURN_SCENARIO = "paper-baseline"
CHURN_REQUESTS = 24
CHURN_SEED = 7
CHURN_FAULT_PROB = 0.15
CHURN_RATE_SCALE = 0.5
CHURN_PERCENTILES = (50, 95, 99)

#: the E-SOAK instance: small problems so the chaos soak is dominated by
#: service behaviour (admission, retries, pool rebuilds), not solve time
SOAK_MESH = (4, 4)
SOAK_COMMS = 8
SOAK_RATES = (100.0, 700.0)
SOAK_SEED0 = 400
SOAK_CLIENTS = 4
SOAK_REQUESTS = 3
SOAK_JOBS = 2
SOAK_FAULTS = "crash@2,delay@5:0.08,drop@8"
SOAK_PERCENTILES = (50, 99)
SOAK_BATCH_WINDOW_MS = 4.0

#: the E-SAT instance: churn-regime warm requests (all variants re-route
#: from one shared deployed routing) small enough that per-request
#: dispatch overhead — what batching and sharding attack — dominates
SAT_MESH = (4, 4)
SAT_COMMS = 8
SAT_RATES = (100.0, 700.0)
SAT_SEED = 900
SAT_VARIANTS = 8
SAT_CLIENTS = (4, 16, 48)
SAT_TOTAL_REQUESTS = 288
SAT_JOBS = 2
SAT_SHARDS = 2
SAT_BATCH_WINDOW_MS = 2.0
SAT_MAX_BATCH = 16
#: admission width for every E-SAT config -- twice ``SAT_MAX_BATCH`` so
#: the next batch forms while the current one evaluates (with admission
#: == max_batch the window degenerates into dead time between batches);
#: the client sweep still tops out past it
SAT_MAX_INFLIGHT = 32
SAT_PERCENTILES = (50, 99)

#: E-SAT configurations: extra ``repro serve`` flags per column
SAT_CONFIGS = {
    "single-unbatched": [
        "--jobs", str(SAT_JOBS),
        "--max-inflight", str(SAT_MAX_INFLIGHT),
    ],
    "single-batched": [
        "--jobs", str(SAT_JOBS),
        "--max-inflight", str(SAT_MAX_INFLIGHT),
        "--batch-window", str(SAT_BATCH_WINDOW_MS),
        "--max-batch", str(SAT_MAX_BATCH),
    ],
    "sharded-batched": [
        "--shards", str(SAT_SHARDS), "--jobs", "1",
        "--max-inflight", str(SAT_MAX_INFLIGHT),
        "--batch-window", str(SAT_BATCH_WINDOW_MS),
        "--max-batch", str(SAT_MAX_BATCH),
    ],
}

#: M-SPEED rows: fresh default-budget instances, fixed seed per round
META_FACTORIES = {
    "GA": lambda: GeneticRouting(seed=0),
    "SA": lambda: SimulatedAnnealing(seed=0),
    "TABU": lambda: TabuRouting(seed=0),
}


@contextlib.contextmanager
def _tier(tier: str):
    """Pin ``REPRO_NATIVE`` for a timed region (``python``→0, ``native``→1).

    ``median_ms`` must keep meaning *the Python tier* on every machine, so
    the timing loops never rely on the ambient (``auto``) tier decision.
    """
    prev = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = {"python": "0", "native": "1"}[tier]
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = prev


def native_available() -> bool:
    """Whether the compiled tier is importable (building it if possible)."""
    from repro.native import native_module

    return native_module() is not None


def build_problem() -> RoutingProblem:
    mesh = Mesh(*MESH_SHAPE)
    power = PowerModel.kim_horowitz()
    return RoutingProblem(
        mesh,
        power,
        uniform_random_workload(mesh, NUM_COMMS, *RATE_RANGE, rng=WORKLOAD_SEED),
    )


def measure_heuristic(rounds: int) -> tuple[dict, dict]:
    """E-SPEED: constructive heuristics on one shared problem object."""
    problem = build_problem()
    medians = {}
    for name in PAPER_HEURISTICS:
        heuristic = get_heuristic(name)
        for _ in range(WARMUP):
            heuristic.solve(problem)
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            heuristic.solve(problem)
            times.append(time.perf_counter() - t0)
        medians[name] = round(statistics.median(times) * 1e3, 4)
    return medians, {}


def measure_meta(rounds: int) -> tuple[dict, dict]:
    """M-SPEED: metaheuristics, fresh problem and instance per round.

    Rounds interleave the competitors (GA, SA, TABU, GA, …) so slow
    machine-load drift hits every row evenly instead of one heuristic.
    ``median_ms`` is always the Python tier; when the native tier is
    importable every row is additionally timed under ``REPRO_NATIVE=1``
    into ``native_median_ms``, with ``native_speedup`` relative to the
    Python tier (both solves are asserted identical while timing).
    """
    tiers = ["python"] + (["native"] if native_available() else [])
    times: dict = {t: {name: [] for name in META_FACTORIES} for t in tiers}
    for tier in tiers:  # warmup + equivalence gate
        with _tier(tier):
            results = {
                name: make().solve(build_problem()).power
                for name, make in META_FACTORIES.items()
            }
            if tier == "python":
                python_power = results
            else:
                assert results == python_power, "tiers disagree on M-SPEED"
    for _ in range(rounds):
        for name, make in META_FACTORIES.items():
            for tier in tiers:
                with _tier(tier):
                    heuristic = make()
                    problem = build_problem()
                    t0 = time.perf_counter()
                    heuristic.solve(problem)
                    times[tier][name].append(time.perf_counter() - t0)
    medians = {
        tier: {
            name: round(statistics.median(ts) * 1e3, 4)
            for name, ts in per.items()
        }
        for tier, per in times.items()
    }
    extras = {}
    if "native" in medians:
        extras["native_median_ms"] = medians["native"]
        extras["native_speedup"] = {
            name: round(medians["python"][name] / ms, 2)
            for name, ms in medians["native"].items()
            if ms > 0
        }
    return medians["python"], extras


def build_noc_routing():
    """The N-SPEED routing: PR on the standard instance, provisioned."""
    mesh = Mesh(*MESH_SHAPE)
    power = PowerModel.kim_horowitz()
    problem = RoutingProblem(
        mesh,
        power,
        uniform_random_workload(
            mesh, NOC_NUM_COMMS, *NOC_RATE_RANGE, rng=NOC_WORKLOAD_SEED
        ),
    )
    result = get_heuristic("PR").solve(problem)
    assert result.valid, "N-SPEED instance must be PR-routable"
    return result.routing


def measure_noc(rounds: int) -> tuple[dict, dict]:
    """N-SPEED: one latency point per fraction, array vs reference engine.

    Rounds interleave fractions and engines so machine-load drift hits
    every cell evenly.  The two engines' points are asserted equal while
    timing — a benchmark that silently compared different curves would be
    meaningless.
    """
    from repro.noc import latency_sweep

    routing = build_noc_routing()
    kw = dict(
        cycles=NOC_CYCLES,
        warmup=NOC_WARMUP,
        injection="bernoulli",
        seed=NOC_SIM_SEED,
    )
    # "native" is the array engine under REPRO_NATIVE=1; "array" and
    # "reference" are pinned to the Python tier so median_ms keeps its
    # meaning on machines where auto would resolve to native
    engines = ["array", "reference"]
    if native_available():
        engines.append("native")

    def sweep(engine: str, frac: float):
        tier = "native" if engine == "native" else "python"
        name = "array" if engine == "native" else engine
        with _tier(tier):
            return latency_sweep(routing, [frac], engine=name, **kw)

    times: dict = {
        engine: {frac: [] for frac in NOC_FRACTIONS} for engine in engines
    }
    for frac in NOC_FRACTIONS:  # warmup + equivalence gate
        points = {engine: sweep(engine, frac) for engine in engines}
        assert (
            len(set(map(tuple, points.values()))) == 1
        ), f"engines disagree at fraction {frac}"
    for _ in range(rounds):
        for frac in NOC_FRACTIONS:
            for engine in engines:
                t0 = time.perf_counter()
                sweep(engine, frac)
                times[engine][frac].append(time.perf_counter() - t0)
    medians = {
        engine: {
            f"{frac:g}": round(statistics.median(ts) * 1e3, 4)
            for frac, ts in per.items()
        }
        for engine, per in times.items()
    }
    after, before = medians["array"], medians["reference"]
    extras = {
        "before_median_ms": before,
        "speedup": {
            point: round(before[point] / ms, 2)
            for point, ms in after.items()
            if ms > 0
        },
    }
    if "native" in medians:
        extras["native_median_ms"] = medians["native"]
        extras["native_speedup"] = {
            point: round(after[point] / ms, 2)
            for point, ms in medians["native"].items()
            if ms > 0
        }
    return after, extras


def build_churn_rows():
    """The E-CHURN request sequence with both answers per request.

    Returns ``(step, prev, cold, warm)`` rows for every perturbed step of
    the trace.  ``prev`` — the previous routing a service client would
    attach — is the *warm* result of the preceding step, so the chain
    replays exactly what resubmission-heavy traffic looks like.  Running
    the full sequence once here also warms every per-problem cache
    (kernel, DAGs, init memo) so the timed rounds measure routing work,
    not lazy construction, on both sides.
    """
    from repro.scenarios import ChurnSpec, churn_trace
    from repro.service import route_incremental

    spec = ChurnSpec(
        scenario=CHURN_SCENARIO,
        requests=CHURN_REQUESTS,
        seed=CHURN_SEED,
        fault_prob=CHURN_FAULT_PROB,
        rate_scale=CHURN_RATE_SCALE,
    )
    steps = churn_trace(spec)
    chain = route_incremental(steps[0].problem)
    rows = []
    for step in steps[1:]:
        cold = route_incremental(step.problem)
        warm = route_incremental(step.problem, chain.routing)
        rows.append((step, chain.routing, cold, warm))
        chain = warm
    return rows


def churn_cache_probe(rows) -> bool:
    """Exact resubmission must be served from the artifact store."""
    import tempfile

    from repro.io.jsonio import problem_to_dict, routing_to_dict
    from repro.service import handle_request_doc

    step, prev, _, _ = rows[0]
    doc = {
        "problem": problem_to_dict(step.problem),
        "prev": routing_to_dict(prev),
    }
    with tempfile.TemporaryDirectory() as tmp:
        s1, first = handle_request_doc(doc, cache_dir=tmp)
        s2, again = handle_request_doc(doc, cache_dir=tmp)
    assert s1 == 200 and s2 == 200, (s1, s2)
    assert not first["cache_hit"], "fresh request must not hit the cache"
    assert again["cache_hit"], "exact resubmission must hit the cache"
    assert again["routing"] == first["routing"], "cache changed the answer"
    return True


def measure_churn(rounds: int) -> tuple[dict, dict]:
    """E-CHURN: warm-start repair vs cold solve along a churn trace.

    Every request of the trace is solved both ways each round (cold
    first, then warm from the chained previous routing) so machine-load
    drift hits both sides evenly.  ``median_ms`` holds the warm side's
    SLA latency percentiles over all timed requests; the cold side is
    the embedded before side.  Timing runs on the tier ``repro serve``
    would actually run — native when the extension is importable, the
    Python tier otherwise (recorded as ``timing_tier``); the chain is
    first replayed on *both* tiers and the routed power totals must be
    bit-identical (cross-tier determinism gate).  Quality is gated while
    timing: the warm chain's total routed power must be equal-or-better
    than cold's.
    """
    from repro.service import route_incremental

    with _tier("python"):
        rows = build_churn_rows()
        cold_total = sum(r[2].power for r in rows)
        warm_total = sum(r[3].power for r in rows)
        assert np.isfinite(cold_total) and np.isfinite(warm_total), (
            "E-CHURN routings must stay strictly valid at the bench's "
            "utilisation"
        )
        assert warm_total <= cold_total * (1.0 + 1e-9), (
            "warm chain routed more power than cold",
            warm_total,
            cold_total,
        )
        cache_hit = churn_cache_probe(rows)
    timing_tier = "native" if native_available() else "python"
    with _tier(timing_tier):
        if timing_tier == "native":
            # cross-tier determinism gate: the native chain must land on
            # bit-identical routings (the rows double as the warmup)
            rows_native = build_churn_rows()
            assert sum(r[2].power for r in rows_native) == cold_total and sum(
                r[3].power for r in rows_native
            ) == warm_total, "tiers disagree on the E-CHURN chain"
            rows = rows_native
        cold_times: dict = {r[0].index: [] for r in rows}
        warm_times: dict = {r[0].index: [] for r in rows}
        for _ in range(rounds):
            for step, prev, _, _ in rows:
                t0 = time.perf_counter()
                route_incremental(step.problem)
                cold_times[step.index].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                route_incremental(step.problem, prev)
                warm_times[step.index].append(time.perf_counter() - t0)
    cold_all = [t for ts in cold_times.values() for t in ts]
    warm_all = [t for ts in warm_times.values() for t in ts]
    medians = {
        f"p{p}": round(float(np.percentile(warm_all, p)) * 1e3, 4)
        for p in CHURN_PERCENTILES
    }
    before = {
        f"p{p}": round(float(np.percentile(cold_all, p)) * 1e3, 4)
        for p in CHURN_PERCENTILES
    }
    # per-step speedup from best-of-rounds: both sides are deterministic,
    # so min over rounds is the least-noise estimate of the true cost
    step_speedups = sorted(
        min(cold_times[i]) / min(warm_times[i])
        for i in cold_times
        if min(warm_times[i]) > 0
    )
    extras = {
        "timing_tier": timing_tier,
        "before_median_ms": before,
        "speedup": {
            point: round(before[point] / ms, 2)
            for point, ms in medians.items()
            if ms > 0
        },
        "median_step_speedup": round(statistics.median(step_speedups), 2),
        "min_step_speedup": round(step_speedups[0], 2),
        "cold_power_total": cold_total,
        "warm_power_total": warm_total,
        "power_ratio": round(warm_total / cold_total, 6),
        "cache_hit_on_resubmission": cache_hit,
    }
    return medians, extras


@contextlib.contextmanager
def _soak_server(**kwargs):
    """Run a :class:`RoutingServer` on its own event-loop thread.

    Yields ``(server, port)``; tears the listener, loop, and worker pool
    down on exit (without waiting on abandoned workers).
    """
    import asyncio
    import threading

    from repro.service import RoutingServer

    server = RoutingServer(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    box: dict = {}

    def run():
        asyncio.set_event_loop(loop)

        async def boot():
            box["listener"] = await server.start_tcp("127.0.0.1", 0)
            box["port"] = box["listener"].sockets[0].getsockname()[1]

        loop.run_until_complete(boot())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "soak server failed to start"
    try:
        yield server, box["port"]
    finally:
        async def finish():
            box["listener"].close()
            tasks = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(finish(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        server.close(wait=False)
        loop.close()


def soak_docs() -> list:
    """One request document per (client, request) slot — all distinct."""
    from repro.io.jsonio import problem_to_dict

    docs = []
    for i in range(SOAK_CLIENTS * SOAK_REQUESTS):
        mesh = Mesh(*SOAK_MESH)
        problem = RoutingProblem(
            mesh,
            PowerModel.kim_horowitz(),
            uniform_random_workload(
                mesh, SOAK_COMMS, *SOAK_RATES, rng=SOAK_SEED0 + i
            ),
        )
        docs.append({"problem": problem_to_dict(problem), "cache": False})
    return docs


def backpressure_probe() -> dict:
    """Deterministic 429 path: one slot, no queue, a fault pinning it.

    An inline (``jobs=1``) server with ``max_inflight=1, queue_depth=0``
    and a ``delay@0`` fault holds its single slot busy; a no-retry client
    arriving meanwhile must be rejected with 429, and a retrying client
    must ride the rejection out.
    """
    import threading

    from repro.service import FaultPlan, RetryPolicy, ServiceClient
    from repro.utils.validation import ReproError

    plan = FaultPlan.parse("delay@0:0.6")
    with _soak_server(
        jobs=1, use_cache=False, max_inflight=1, queue_depth=0,
        fault_plan=plan,
    ) as (server, port):
        doc = soak_docs()[0]
        slow = ServiceClient("127.0.0.1", port, retry=None, timeout=30)
        slow.wait_ready()
        holder = threading.Thread(target=lambda: slow.route(doc))
        holder.start()
        time.sleep(0.15)  # let the delayed request take the only slot
        try:
            ServiceClient("127.0.0.1", port, retry=None, timeout=30).route(doc)
            raise AssertionError("saturated server must answer 429")
        except ReproError as exc:
            assert "429" in str(exc), f"expected a 429 rejection: {exc}"
        # the client honors Retry-After (0.1s) over its own backoff, so
        # riding out the 0.6s hold takes more attempts than the default
        retrying = ServiceClient(
            "127.0.0.1", port, retry=RetryPolicy(attempts=15, seed=0),
            timeout=30,
        )
        body = retrying.route(doc)
        assert body["ok"], "retrying client must succeed after backoff"
        holder.join(30)
        rejected = server.stats["rejected"]
    assert rejected >= 1, "the probe never tripped admission control"
    return {"rejected": rejected, "retry_rides_out_429": True}


def measure_soak(rounds: int) -> tuple[dict, dict]:
    """E-SOAK: chaos soak — scripted faults under concurrent clients.

    Client-observed request latencies (retries included) across all
    rounds feed the p50/p99 in ``median_ms``.  Gates while timing: zero
    client-visible failures, responses bit-identical to a serial
    :func:`handle_request_doc` run, the fault plan fully consumed each
    round, and the deterministic 429 backpressure probe.
    """
    import tempfile
    import threading

    from repro.service import (
        FaultPlan,
        RetryPolicy,
        ServiceClient,
        handle_request_doc,
    )

    docs = soak_docs()
    with _tier("python"):
        reference = []
        for doc in docs:  # the undisturbed serial truth, faults off
            status, body = handle_request_doc(doc, use_cache=False)
            assert status == 200, body
            reference.append(body)
        latencies: list[float] = []
        counters = {
            k: 0
            for k in ("pool_rebuilds", "drops", "timeouts", "batches",
                      "batched")
        }
        for _ in range(rounds):
            plan = FaultPlan.parse(SOAK_FAULTS)
            # batching is ON during the soak: coalescing must survive
            # the chaos plan (faulted requests bypass the batcher)
            with tempfile.TemporaryDirectory() as tmp, _soak_server(
                jobs=SOAK_JOBS, cache_dir=tmp, use_cache=False,
                fault_plan=plan, batch_window=SOAK_BATCH_WINDOW_MS / 1e3,
            ) as (server, port):
                results: list = [None] * len(docs)
                times: list = [None] * len(docs)
                failures: list = []

                def drive(ci: int):
                    try:
                        client = ServiceClient(
                            "127.0.0.1", port,
                            retry=RetryPolicy(seed=ci + 1), timeout=60,
                        )
                        client.wait_ready()
                        for ri in range(SOAK_REQUESTS):
                            idx = ci * SOAK_REQUESTS + ri
                            t0 = time.perf_counter()
                            results[idx] = client.route(docs[idx])
                            times[idx] = time.perf_counter() - t0
                        client.close()
                    except Exception as exc:  # noqa: BLE001 — the gate
                        failures.append((ci, repr(exc)))

                threads = [
                    threading.Thread(target=drive, args=(ci,))
                    for ci in range(SOAK_CLIENTS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not failures, f"client-visible failures: {failures}"
                for idx, body in enumerate(results):
                    assert body is not None, f"request {idx} never completed"
                    assert (
                        body["routing"] == reference[idx]["routing"]
                        and body["power"] == reference[idx]["power"]
                    ), f"response {idx} diverged from the serial run"
                assert not plan.pending(), (
                    "fault plan not fully consumed", plan.pending()
                )
                stats = server.stats
                assert stats["pool_rebuilds"] >= 1, "crash fault never fired"
                assert stats["drops"] >= 1, "drop fault never fired"
                for key in counters:
                    counters[key] += stats[key]
                latencies.extend(times)
        probe = backpressure_probe()
    medians = {
        f"p{p}": round(float(np.percentile(latencies, p)) * 1e3, 4)
        for p in SOAK_PERCENTILES
    }
    assert counters["batched"] >= 1, "batching never engaged in the soak"
    extras = {
        "timing_tier": "python",
        "fault_plan": SOAK_FAULTS,
        "batch_window_ms": SOAK_BATCH_WINDOW_MS,
        "requests_total": len(latencies),
        "zero_failures": True,
        "bit_identical_to_serial": True,
        "chaos_counters": counters,
        "backpressure": probe,
    }
    return medians, extras


@contextlib.contextmanager
def _sat_server(extra_flags):
    """A real ``repro serve`` subprocess → ``(proc, port)``.

    Asserts a clean SIGTERM drain (exit 0) on the way out — every E-SAT
    configuration must shut down gracefully, prefork included.
    """
    import signal
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--no-cache", *extra_flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        m = re.search(r"http://[\d.]+:(\d+)", line)
        if m is None:
            proc.kill()
            raise AssertionError(
                f"no listening line: {line!r} {proc.stdout.read()!r}"
            )
        yield proc, int(m.group(1))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (
            f"serve subprocess exited {proc.returncode}:\n{out}"
        )


def sat_docs() -> list:
    """The E-SAT request documents: churn-regime warm re-routes.

    One base instance is routed once; every variant document perturbs
    one communication's rate and asks for a warm re-route from the
    *shared* deployed routing — the resubmission-heavy regime the
    service is built for, and the one where a batch shares the dominant
    previous-routing parse.
    """
    from repro import Communication
    from repro.io.jsonio import problem_to_dict, routing_to_dict
    from repro.service import route_incremental

    mesh = Mesh(*SAT_MESH)
    power = PowerModel.kim_horowitz()
    base = RoutingProblem(
        mesh,
        power,
        uniform_random_workload(mesh, SAT_COMMS, *SAT_RATES, rng=SAT_SEED),
    )
    prev = routing_to_dict(route_incremental(base).routing)
    docs = []
    for i in range(SAT_VARIANTS):
        comms = list(base.comms)
        victim = i % len(comms)
        comms[victim] = Communication(
            comms[victim].src, comms[victim].snk,
            comms[victim].rate + 10.0 * (i + 1),
        )
        docs.append({
            "problem": problem_to_dict(
                RoutingProblem(mesh, power, comms)
            ),
            "prev": prev,
            "polish": "none",
            "cache": False,
        })
    return docs


def _sat_wave(port, docs, clients):
    """One load wave: ``clients`` threads over a pooled client.

    Returns ``(results, doc_indices, latencies, wall_seconds)`` for
    ``SAT_TOTAL_REQUESTS`` requests split evenly across the threads.
    The fleet moves in *synchronized churn waves*: every thread's
    ``ri``-th request re-routes the same deployment update
    (``docs[ri % len(docs)]``) — the concurrent-duplicate regime a
    saturated service actually sees (one rate change, every frontend
    re-requesting it at once) and the one request coalescing targets.
    Every config and fleet size answers the same request mix.
    """
    import threading

    from repro.service import RetryPolicy, ServiceClient

    per = SAT_TOTAL_REQUESTS // clients
    total = per * clients
    client = ServiceClient(
        "127.0.0.1", port, pool_size=clients,
        retry=RetryPolicy(seed=17), timeout=120,
    )
    results: list = [None] * total
    doc_idx: list = [None] * total
    laten: list = [None] * total
    failures: list = []

    def drive(ci: int):
        try:
            for ri in range(per):
                idx = ci * per + ri
                doc_idx[idx] = ri % len(docs)
                t0 = time.perf_counter()
                results[idx] = client.route(docs[ri % len(docs)])
                laten[idx] = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 — the gate below
            failures.append((ci, repr(exc)))

    threads = [
        threading.Thread(target=drive, args=(ci,))
        for ci in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    wall = time.perf_counter() - t0
    client.close()
    assert not failures, f"client-visible failures: {failures}"
    return results, doc_idx, laten, wall


def measure_sat(rounds: int, gate: float = 2.0) -> tuple[dict, dict]:
    """E-SAT: saturation sweep over serving configurations.

    For each configuration a real ``repro serve`` subprocess is swept
    with client fleets past ``--max-inflight``; RPS is best-of-rounds
    per (config, fleet) and latencies pool across rounds.  Gates while
    timing: bit-identity of every response to a serial
    ``handle_request_doc`` run, zero failures, batches observed on
    batched configs, clean drains, and the in-run speedup ``gate``.
    """
    import hashlib

    from repro.service import ServiceClient, handle_request_doc

    tier = "native" if native_available() else "python"
    with _tier(tier):  # subprocess servers inherit the pinned tier
        docs = sat_docs()

        def digest(body):
            doc = {k: v for k, v in body.items() if k != "elapsed_ms"}
            wire = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(wire.encode()).hexdigest()

        reference = []
        for doc in docs:  # the serial truth every response must match
            status, body = handle_request_doc(doc, use_cache=False)
            assert status == 200, body
            reference.append(digest(body))

        rps: dict = {name: {} for name in SAT_CONFIGS}
        laten: dict = {
            name: {c: [] for c in SAT_CLIENTS} for name in SAT_CONFIGS
        }
        batching: dict = {}
        for name, flags in SAT_CONFIGS.items():
            with _sat_server(flags) as (proc, port):
                probe = ServiceClient("127.0.0.1", port, timeout=120)
                probe.wait_ready()
                for doc in docs:  # warm every per-problem lazy cache
                    assert probe.route(doc)["ok"]
                for _ in range(rounds):
                    for clients in SAT_CLIENTS:
                        results, doc_idx, times, wall = _sat_wave(
                            port, docs, clients
                        )
                        for idx, body in enumerate(results):
                            assert digest(body) == \
                                reference[doc_idx[idx]], (
                                f"{name}/c{clients}: response {idx} "
                                "diverged from the serial run"
                            )
                        point = round(len(results) / wall, 1)
                        rps[name][clients] = max(
                            rps[name].get(clients, 0.0), point
                        )
                        laten[name][clients].extend(times)
                stats = probe.stats()
                probe.close()
                assert stats.get("errors", 0) == 0, stats
                batching[name] = {
                    "batches": stats.get("batches", 0),
                    "batched": stats.get("batched", 0),
                }
                if "--batch-window" in flags:
                    assert batching[name]["batches"] >= 1, (
                        f"{name} never formed a batch", stats
                    )
                else:
                    assert batching[name]["batched"] == 0, (
                        f"{name} batched without being asked", stats
                    )
    medians = {
        f"{name}/c{clients}/p{p}": round(
            float(np.percentile(ts, p)) * 1e3, 4
        )
        for name, per in laten.items()
        for clients, ts in per.items()
        for p in SAT_PERCENTILES
    }
    saturated = {name: max(per.values()) for name, per in rps.items()}
    speedup = round(
        saturated["sharded-batched"] / saturated["single-unbatched"], 2
    )
    if gate > 0:
        assert speedup >= gate, (
            "batched+sharded saturated throughput "
            f"{saturated['sharded-batched']} RPS is only {speedup}x the "
            f"unbatched single front {saturated['single-unbatched']} RPS "
            f"(gate: {gate}x)"
        )
    extras = {
        "timing_tier": tier,
        "rps": {
            name: {f"c{c}": v for c, v in per.items()}
            for name, per in rps.items()
        },
        "saturated_rps": saturated,
        "speedup_vs_single_unbatched": {
            name: round(v / saturated["single-unbatched"], 2)
            for name, v in saturated.items()
        },
        "gated_speedup": speedup,
        "gate": gate,
        "batching": batching,
        "zero_failures": True,
        "bit_identical_to_serial": True,
        "clean_drains": True,
    }
    return medians, extras


SUITES = {
    "heuristic": ("heuristic-speed", measure_heuristic),
    "meta": ("meta-speed", measure_meta),
    "noc": ("noc-speed", measure_noc),
    "churn": ("e-churn", measure_churn),
    "soak": ("e-soak", measure_soak),
    "sat": ("e-sat", measure_sat),
}

#: suites that embed their own before side (reject a conflicting --before)
SELF_BEFORE_SUITES = {"noc", "churn", "sat"}


def next_bench_number() -> int:
    nums = [
        int(m.group(1))
        for p in REPO_ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
    ]
    return max(nums, default=0) + 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", nargs="?", type=int, default=None)
    parser.add_argument("--suite", choices=sorted(SUITES), default="heuristic")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument(
        "--before",
        type=pathlib.Path,
        default=None,
        help="previously recorded BENCH json of the same suite to embed "
        "as the before side (with per-heuristic speedups)",
    )
    parser.add_argument(
        "--sat-gate",
        type=float,
        default=2.0,
        help="E-SAT in-run speedup floor for batched+sharded vs the "
        "unbatched single front (0 disables the gate; default: 2.0)",
    )
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else next_bench_number()
    suite_name, measure = SUITES[args.suite]
    if args.suite == "sat":
        import functools

        measure = functools.partial(measure_sat, gate=args.sat_gate)
    if args.before is not None and args.suite in SELF_BEFORE_SUITES:
        print(
            f"--before is not supported for the {args.suite!r} suite: it "
            "records its own before side (the reference engine)",
            file=sys.stderr,
        )
        return 1
    medians, extras = measure(args.rounds)
    if args.suite == "noc":
        instance = {
            "mesh": f"{MESH_SHAPE[0]}x{MESH_SHAPE[1]}",
            "num_comms": NOC_NUM_COMMS,
            "rates": list(NOC_RATE_RANGE),
            "workload_seed": NOC_WORKLOAD_SEED,
            "power_model": "kim_horowitz",
            "routing": "PR",
            "cycles": NOC_CYCLES,
            "warmup": NOC_WARMUP,
            "injection": "bernoulli",
            "sim_seed": NOC_SIM_SEED,
        }
    elif args.suite == "soak":
        instance = {
            "mesh": f"{SOAK_MESH[0]}x{SOAK_MESH[1]}",
            "num_comms": SOAK_COMMS,
            "rates": list(SOAK_RATES),
            "workload_seed0": SOAK_SEED0,
            "power_model": "kim_horowitz",
            "clients": SOAK_CLIENTS,
            "requests_per_client": SOAK_REQUESTS,
            "jobs": SOAK_JOBS,
            "fault_plan": SOAK_FAULTS,
        }
    elif args.suite == "sat":
        instance = {
            "mesh": f"{SAT_MESH[0]}x{SAT_MESH[1]}",
            "num_comms": SAT_COMMS,
            "rates": list(SAT_RATES),
            "workload_seed": SAT_SEED,
            "power_model": "kim_horowitz",
            "variants": SAT_VARIANTS,
            "clients": list(SAT_CLIENTS),
            "requests_per_wave": SAT_TOTAL_REQUESTS,
            "jobs": SAT_JOBS,
            "shards": SAT_SHARDS,
            "batch_window_ms": SAT_BATCH_WINDOW_MS,
            "max_batch": SAT_MAX_BATCH,
            "polish": "none",
        }
    elif args.suite == "churn":
        instance = {
            "scenario": CHURN_SCENARIO,
            "requests": CHURN_REQUESTS,
            "trace_seed": CHURN_SEED,
            "fault_prob": CHURN_FAULT_PROB,
            "rate_scale": CHURN_RATE_SCALE,
            "solver": "XYI",
            "polish": "anneal",
        }
    else:
        instance = {
            "mesh": f"{MESH_SHAPE[0]}x{MESH_SHAPE[1]}",
            "num_comms": NUM_COMMS,
            "rates": list(RATE_RANGE),
            "workload_seed": WORKLOAD_SEED,
            "power_model": "kim_horowitz",
        }
    payload = {
        "bench": n,
        "suite": suite_name,
        "instance": instance,
        "rounds": args.rounds,
        "median_ms": medians,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    payload.update(extras)
    if args.before is not None:
        before = json.loads(args.before.read_text())
        if before.get("suite") != suite_name:
            print(
                f"--before file records suite {before.get('suite')!r}, "
                f"not {suite_name!r}",
                file=sys.stderr,
            )
            return 1
        payload["before_median_ms"] = before["median_ms"]
        payload["speedup"] = {
            name: round(before["median_ms"][name] / ms, 2)
            for name, ms in medians.items()
            if name in before["median_ms"] and ms > 0
        }
    out = REPO_ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"[saved to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
