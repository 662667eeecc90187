"""``sweep``: the paper's Figure 7(b) Monte-Carlo sweep.

``run_sweep(fig7_config("b", trials=TRIALS, seed=S), jobs=nproc)`` — 5 to
70 mixed communications on the 8x8 mesh, full paper roster.  The untraced
run makes one sweep per ``PASS_SECONDS`` of ``--seconds``, each with its
own seed, and checks each against its expected aggregates.  The traced
run runs the first pass again on the serial engine in-process, with spans
around the calls into each layer, and its aggregates must match the
parallel pass bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List

from harness import RssSampler, digest, import_setup_times, median, nproc
from tracing import Tracer, mean_self_ms

#: Monte-Carlo trials per sweep point
TRIALS = 4
#: sweeps per run: one per this many ``--seconds`` (about one sweep's
#: wall time on a 2-core box)
PASS_SECONDS = 5
SETUP_MODULES = ("repro.experiments.runner", "repro.experiments.config")
#: fresh interpreters timed for ``setup_s`` before each pass (spread
#: over the run: right after a pass their times vary much less from run
#: to run than a block of them timed at its start)
SETUP_PER_PASS = 3
#: traced passes of the traced run, each followed by an untraced one
TRACE_ROUNDS = 2

HEURISTICS = ("XY", "SG", "IG", "TB", "XYI", "PR")


def config(seed: int):
    from repro.experiments.config import fig7_config

    return fig7_config("b", trials=TRIALS, seed=seed)


def point_digest(point) -> List:
    """Every aggregate of one sweep point except the wall-clock runtime."""
    return [
        float(point.x).hex(),
        [
            [name, s.trials, s.successes, s.norm_power_inverse.hex(),
             s.mean_power_inverse.hex(), s.mean_static_fraction.hex()]
            for name, s in sorted(point.stats.items())
        ],
    ]


def sweep_digest(result) -> str:
    return hashlib.sha256(
        digest([point_digest(p) for p in result.points]).encode()
    ).hexdigest()


def _reference_point(seed: int, k: int):
    """Point ``k`` recomputed on the serial reference engine."""
    from repro.experiments.runner import run_point

    cfg = config(seed)
    point = cfg.points[k]
    return run_point(cfg.mesh(), cfg.power_factory(), point.workload,
                     trials=cfg.trials, seed=cfg.seed * 1_000_003 + k,
                     heuristic_names=cfg.heuristics, x=point.x, jobs=1)


def passes(seconds: float) -> int:
    """Sweeps per run: fixed by ``--seconds``, never by machine speed."""
    return max(1, int(seconds // PASS_SECONDS))


def pass_seed(seed: int, k: int) -> int:
    return seed * 100 + k


def run(seed: int, seconds: float, env, expected: Dict[str, str]) -> Dict:
    """The untraced run: end-to-end metrics plus the output check.

    Pass ``k`` sweeps with seed ``pass_seed(seed, k)``, so a run averages
    over ``passes(seconds)`` distinct instance sets.
    """
    from repro.experiments.runner import run_sweep

    jobs = nproc()
    setups: List[float] = []
    walls: List[float] = []
    results = []
    failed = 0
    peak_mb = 0.0
    for k in range(passes(seconds)):
        setups += import_setup_times(SETUP_MODULES, env, SETUP_PER_PASS)
        with RssSampler([os.getpid()]) as rss:
            t0 = time.perf_counter()
            try:
                results.append(run_sweep(config(pass_seed(seed, k)),
                                         jobs=jobs))
            except Exception as exc:  # a pass that raised is a failed op
                failed += 1
                results.append(None)
                print(f"sweep pass {k} failed: {exc!r}")
            walls.append(time.perf_counter() - t0)
        peak_mb = max(peak_mb, rss.peak_mb)
    problems = []
    digests = {}
    for k, result in enumerate(results):
        if result is None:
            continue
        sub = pass_seed(seed, k)
        digests[sub] = sweep_digest(result)
        want = expected.get(str(sub))
        if want is not None:
            if digests[sub] != want:
                problems.append(f"sweep seed {sub}: digest {digests[sub]} "
                                f"!= recorded {want}")
            continue
        # no recorded value for this seed: recompute one point on the
        # serial reference engine instead
        i = sub % len(result.points)
        ref = _reference_point(sub, i)
        if digest(point_digest(ref)) != digest(point_digest(result.points[i])):
            problems.append(f"sweep seed {sub}: point {i} differs from the "
                            "serial reference")
    trials = sum(TRIALS * len(r.points) for r in results if r is not None)
    return {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": peak_mb,
            "ops_per_s": trials / sum(walls),
            "p50_ms": median(walls) * 1e3,
        },
        "info": {"passes": len(walls), "trials": trials, "jobs": jobs,
                 "digests": digests},
        "first": results[0],
    }


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------
def _span_targets():
    """The attributes the serial engine looks up, and their span names.

    ``run_sweep(jobs=1)`` runs the same ``_run_trials`` a pool worker runs
    for its chunk: batch-graded heuristics route through ``route_timed``
    and are graded together by ``evaluate_deferred``, the others solve
    and grade inline through ``Heuristic.solve``.
    """
    from repro.experiments import config as config_mod
    from repro.experiments import runner
    from repro.heuristics import base

    return [
        (config_mod, "uniform_random_workload", "workloads.draw"),
        (runner, "_draw_trial_problem", "core.problem"),
        (base.Heuristic, "route_timed",
         lambda args, _: f"heuristics.{args[0].name}.solve"),
        (base, "evaluate_routing", "core.evaluate"),
        (runner, "evaluate_deferred", "core.evaluate_stacked"),
        (runner, "aggregate_records", "experiments.runner.aggregate"),
    ]


def traced(seed: int, seconds: float, env, expected) -> Dict:
    """Per-layer metrics: one parallel pass, then serial passes of it."""
    from repro.experiments.runner import run_sweep

    base = run(seed, 0.0, env, expected)
    cfg = config(pass_seed(seed, 0))
    run_sweep(cfg, jobs=1)  # warm-up: first-use costs of the process
    tracer = Tracer()
    traced_s = serial_s = 0.0
    # traced and untraced passes alternate, so drift hits both sides
    for _ in range(TRACE_ROUNDS):
        t0 = time.perf_counter()
        with tracer.wrapped(_span_targets()), tracer.span("workload"):
            traced_result = run_sweep(cfg, jobs=1)
        traced_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        plain = run_sweep(cfg, jobs=1)
        serial_s += time.perf_counter() - t0
    problems = list(base["problems"])
    if base["first"] is not None:
        want = sweep_digest(base["first"])
        for name, got in (("untraced", plain), ("traced", traced_result)):
            if sweep_digest(got) != want:
                problems.append(f"{name} serial sweep differs from the "
                                "parallel one")
    table = tracer.self_times()
    points = traced_result.points
    trials = TRIALS * len(points)  # per pass
    successes = sum(p.stats[h].successes for p in points for h in HEURISTICS)
    evaluate_ms = sum(table.get(n, {}).get("self_ms", 0.0)
                      for n in ("core.evaluate", "core.evaluate_stacked"))
    layer = {
        "workloads.draw_ms": mean_self_ms(table, "workloads.draw"),
        "core.problem_ms": mean_self_ms(table, "core.problem"),
        "core.evaluate_ms": evaluate_ms / (trials * TRACE_ROUNDS),
        "experiments.runner.aggregate_ms": mean_self_ms(
            table, "experiments.runner.aggregate"),
        "experiments.runner.parallel_efficiency": (
            serial_s / TRACE_ROUNDS
            / (base["info"]["jobs"] * base["metrics"]["p50_ms"] / 1e3)),
        "heuristics.valid_frac": successes / (trials * len(HEURISTICS)),
    }
    for h in HEURISTICS:
        layer[f"heuristics.{h}.solve_ms"] = mean_self_ms(
            table, f"heuristics.{h}.solve")
    return {
        "attempted": base["attempted"],
        "failed": base["failed"],
        "problems": problems,
        "layer": layer,
        "tracer": tracer,
        "untraced_s": serial_s,
        "traced_s": traced_s,
        "e2e": base["metrics"],
        "info": base["info"],
    }
