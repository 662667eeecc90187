"""``noc-curve``: load-latency curves of the six registry scenarios.

``scenario_latency_curve(name, seed=..., cycles=CYCLES)`` for every
registry scenario: BEST deployment, the default offered-load fractions
(0.2 to 2.5, idle through saturated), Bernoulli arrivals, serial.  The
untraced run makes one pass of the six curves per ``PASS_SECONDS`` of
``--seconds``, each with its own scenario seeds; the traced run runs the
first pass again with spans around the calls into each layer.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Tuple

from harness import RssSampler, digest, import_setup_times, median
from tracing import Tracer, mean_self_ms

#: simulated cycles per curve point (the first WARMUP are not measured)
CYCLES = 20000
WARMUP = 800
#: passes of the six curves per run: one per this many ``--seconds``
PASS_SECONDS = 3
SETUP_MODULES = ("repro.scenarios.runner", "repro.noc.engine")
#: fresh interpreters timed for ``setup_s`` before each pass (spread
#: over the run: right after a pass their times vary much less from run
#: to run than a block of them timed at its start)
SETUP_PER_PASS = 2
#: traced passes of the traced run, each followed by an untraced one
TRACE_ROUNDS = 2
#: candidate scenario seeds tried per workload seed, until the scenario's
#: trial-0 instance has a valid BEST routing to deploy
SEED_STRIDE = 64


def deployments(seed: int) -> List[Tuple[str, int, object]]:
    """``(scenario, scenario seed, deployed routing)`` for every scenario.

    A scenario's seed is the first of ``seed * SEED_STRIDE + j`` whose
    instance BEST can route, so no curve of the workload fails.
    """
    from repro.core.problem import RoutingProblem
    from repro.heuristics import BestOf
    from repro.scenarios.registry import available_scenarios, get_scenario
    from repro.utils.rng import spawn_rngs

    out = []
    for name in available_scenarios():
        for j in range(SEED_STRIDE):
            sc = get_scenario(name).with_overrides(seed=seed * SEED_STRIDE
                                                   + j)
            mesh = sc.build_mesh()
            comms = sc.workload(mesh, spawn_rngs(sc.seed, 1)[0])
            result = BestOf(names=sc.heuristics).solve(
                RoutingProblem(mesh, sc.power_model(), comms))
            if result.valid:
                out.append((name, sc.seed, result.routing))
                break
        else:
            raise RuntimeError(f"{name}: no routable seed near {seed}")
    return out


def curve_digest(result) -> str:
    return hashlib.sha256(digest(result.to_jsonable()).encode()).hexdigest()


def _python_tier_point(routing, scenario_seed: int, fraction: float):
    """One curve point recomputed on the Python tier of the engine."""
    from repro.noc.sweep import latency_sweep

    before = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        return latency_sweep(routing, [fraction], cycles=CYCLES,
                             warmup=WARMUP, seed=scenario_seed)[0]
    finally:
        if before is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = before


def passes(seconds: float) -> int:
    """Six-curve passes per run: fixed by ``--seconds``, never by speed."""
    return max(1, int(seconds // PASS_SECONDS))


def pass_seed(seed: int, k: int) -> int:
    return seed * 100 + k


def run(seed: int, seconds: float, env, expected: Dict[str, str]) -> Dict:
    """The untraced run; pass ``k`` deploys from ``pass_seed(seed, k)``."""
    from repro.scenarios.runner import scenario_latency_curve

    plan = [deployments(pass_seed(seed, k)) for k in range(passes(seconds))]
    setups: List[float] = []
    walls: List[float] = []
    curves: List[Dict[str, object]] = []
    failed = attempted = cycles = 0
    peak_mb = 0.0
    for deployed in plan:
        setups += import_setup_times(SETUP_MODULES, env, SETUP_PER_PASS)
        with RssSampler([os.getpid()]) as rss:
            t0 = time.perf_counter()
            got: Dict[str, object] = {}
            for name, sc_seed, _ in deployed:
                attempted += 1
                try:
                    got[name] = scenario_latency_curve(
                        name, seed=sc_seed, cycles=CYCLES, warmup=WARMUP)
                except Exception as exc:  # a raised curve is a failed op
                    failed += 1
                    print(f"{name} curve failed: {exc!r}")
                    continue
                cycles += CYCLES * len(got[name].points)
            walls.append(time.perf_counter() - t0)
        peak_mb = max(peak_mb, rss.peak_mb)
        curves.append(got)
    problems = []
    digests = {}
    for k, (deployed, got) in enumerate(zip(plan, curves)):
        sub = pass_seed(seed, k)
        digests[sub] = hashlib.sha256(digest(
            [[curve_digest(got[n])] for n, _, _ in deployed if n in got]
        ).encode()).hexdigest()
        want = expected.get(str(sub))
        if want is not None and digests[sub] != want:
            problems.append(f"noc seed {sub}: digest {digests[sub]} != "
                            f"recorded {want}")
    k = seed % len(plan)
    if expected.get(str(pass_seed(seed, k))) is None:
        # no recorded value: one point against the Python-tier engine
        name, sc_seed, routing = plan[k][seed % len(plan[k])]
        if name in curves[k]:
            points = curves[k][name].points
            pick = points[seed % len(points)]
            ref = _python_tier_point(routing, sc_seed, pick.fraction)
            if digest(ref.to_jsonable()) != digest(pick.to_jsonable()):
                problems.append(f"{name} point {pick.fraction} differs "
                                "from the Python-tier engine")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": peak_mb,
            "ops_per_s": cycles / sum(walls),
            "p50_ms": median(walls) * 1e3,
        },
        "info": {"passes": len(walls), "sim_cycles": cycles,
                 "digests": digests},
        "first": curves[0],
        "deployed": plan[0],
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _span_targets():
    """The attributes ``scenario_latency_curve`` looks up, and their
    span names (``latency_sweep`` runs serially in-process)."""
    from repro.heuristics.best import BestOf
    from repro.noc import sweep
    from repro.noc.engine import ArrayFlitSimulator

    return [
        (BestOf, "solve", "heuristics.BEST.solve"),
        (sweep, "build_flow_table", "noc.tables.build"),
        (ArrayFlitSimulator, "__init__", "noc.engine.init"),
        (ArrayFlitSimulator, "run", "noc.engine.run"),
        (sweep, "_aggregate", "noc.sweep.aggregate"),
    ]


def _curves(deployed) -> Dict[str, object]:
    from repro.scenarios.runner import scenario_latency_curve

    return {name: scenario_latency_curve(name, seed=sc_seed, cycles=CYCLES,
                                         warmup=WARMUP)
            for name, sc_seed, _ in deployed}


def traced(seed: int, seconds: float, env, expected) -> Dict:
    base = run(seed, 0.0, env, expected)
    deployed = base["deployed"]
    _curves(deployed)  # warm-up: first-use costs of the process
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    # traced and untraced passes alternate, so drift hits both sides
    for _ in range(TRACE_ROUNDS):
        t0 = time.perf_counter()
        with tracer.wrapped(_span_targets()), tracer.span("workload"):
            curves = _curves(deployed)
        traced_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        _curves(deployed)
        untraced_s += time.perf_counter() - t0
    problems = list(base["problems"])
    for name, res in base["first"].items():
        if curve_digest(curves[name]) != curve_digest(res):
            problems.append(f"{name}: traced curve differs from the "
                            "untraced one")
    table = tracer.self_times()
    run_ms = table.get("noc.engine.run", {}).get("self_ms", 0.0)
    delivered = sum(p.delivered_flits for c in curves.values()
                    for p in c.points) * TRACE_ROUNDS
    layer = {
        "heuristics.BEST.solve_ms": mean_self_ms(table,
                                                 "heuristics.BEST.solve"),
        "noc.tables.build_ms": mean_self_ms(table, "noc.tables.build"),
        "noc.engine.init_ms": mean_self_ms(table, "noc.engine.init"),
        "noc.engine.run_ms": mean_self_ms(table, "noc.engine.run"),
        "noc.engine.delivered_flits": delivered,
        "noc.engine.flits_per_s": delivered / (run_ms / 1e3)
        if run_ms else 0.0,
    }
    return {
        "attempted": base["attempted"],
        "failed": base["failed"],
        "problems": problems,
        "layer": layer,
        "tracer": tracer,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "e2e": base["metrics"],
        "info": base["info"],
    }
