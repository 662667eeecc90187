"""The repository's benchmark: one command, four workloads.

Run one workload (the last stdout line is the machine-readable result)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run every workload once, untraced, and print the end-to-end table::

    python3 perfbench/run.py --all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics in a separate traced run and writes a Chrome
trace-event file under ``.bench_out/``.  A run whose outputs differ from
the expected ones reports ``"correct": false`` and exits 1.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (OUT, ROOT, BenchError, ensure_native,  # noqa: E402
                     host_block, prepare_source)

WORKLOADS = ("sweep", "serve-churn", "serve-repeat", "noc-curve")

#: what each workload's ``ops_per_s`` counts, printed next to it
OPS_ALIAS = {
    "sweep": "trials_per_s",
    "serve-churn": "capacity_rps",
    "serve-repeat": "capacity_rps",
    "noc-curve": "sim_cycles_per_s",
}


def _units(kind: str) -> Dict[str, str]:
    """``{metric: unit}`` of ``end_to_end`` or ``per_layer`` metrics, in
    ``BENCHMARK.json`` order.  Every workload reports every metric; a
    per-layer metric reads 0 where a workload never enters the layer."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _expected(workload: str) -> Dict[str, str]:
    path = Path(__file__).resolve().parent / "expected.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {})


def _dispatch(workload: str, seed: int, seconds: float, env,
              trace: bool) -> Dict:
    if workload == "sweep":
        import wl_sweep as wl

        fn = wl.traced if trace else wl.run
        return fn(seed, seconds, env, _expected(workload))
    if workload == "noc-curve":
        import wl_noc as wl

        fn = wl.traced if trace else wl.run
        return fn(seed, seconds, env, _expected(workload))
    import wl_serve as wl

    spec = wl.CHURN if workload == "serve-churn" else wl.REPEAT
    fn = wl.traced if trace else wl.run
    return fn(spec, seed, seconds, env)


def _jsonable(info):
    """The printable part of a workload's info block."""
    if isinstance(info, dict):
        return {k: _jsonable(v) for k, v in info.items()
                if k not in ("light", "light_docs")}
    if isinstance(info, (list, tuple)):
        return [_jsonable(v) for v in info]
    return info


def run_one(args) -> int:
    try:
        env = prepare_source()
        version = ensure_native(env)
        host = host_block(version, args.seed)
        res = _dispatch(args.workload, args.seed, float(args.seconds), env,
                        bool(args.trace))
    except BenchError as exc:  # the harness failed, not the program
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = max(1, int(res["attempted"]))
    failed = int(res["failed"])
    problems = list(res["problems"])
    info = res.get("info", {})
    fixed = info.get("fixed", {})
    host["generator_lag_p99_ms"] = fixed.get("lag_p99_ms")
    host["loadgen_valid"] = info.get("loadgen_valid", True)
    if args.trace:
        tracer = res["tracer"]
        root = res.get("root", "workload")
        units = _units("per_layer")
        layer = {name: 0.0 for name in units}
        layer.update(res["layer"])
        layer["failed_frac"] = failed / attempted
        layer["trace.overhead_frac"] = res["traced_s"] / res["untraced_s"] - 1
        layer["trace.coverage"] = tracer.root_coverage(root)
        unknown = set(layer) - set(units)
        if unknown:
            raise AssertionError(f"undeclared per-layer metrics {unknown}")
        metrics = {k: {"value": float(layer[k]), "unit": u}
                   for k, u in units.items()}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "host": host,
                                  "end_to_end_untraced_run": res["e2e"]})
        table = tracer.self_times()
        total = table.get(root, {}).get("total_ms", 0.0)
        print(f"per-layer self time ({args.workload}, root {root}, "
              f"{total:.1f} ms traced):")
        for name, row in sorted(table.items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            share = row["self_ms"] / total if total else 0.0
            print(f"  {name:36s} {row['self_ms']:10.2f} ms "
                  f"{share:7.1%}  calls {row['calls']}")
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {k: {"value": float(res["metrics"][k]), "unit": u}
                   for k, u in _units("end_to_end").items()}
    print("host: " + json.dumps(host))
    print("info: " + json.dumps(_jsonable(info), default=str))
    if not host["loadgen_valid"]:
        print("WARNING: the load generator ran late; this run is invalid, "
              "not slow")
    for problem in problems:
        print(f"OUTPUT MISMATCH: {problem}")
    for name, m in metrics.items():
        alias = ""
        if name == "ops_per_s":
            alias = f"  ({OPS_ALIAS[args.workload]})"
        print(f"  {args.workload:12s} {name:40s} {m['value']:14.4f} "
              f"{m['unit']}{alias}")
    if "failed_frac" not in metrics:
        print(f"  {args.workload:12s} {'failed_frac':40s} "
              f"{failed / attempted:14.4f} frac")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "host": host,
                              "info": _jsonable(info)}, default=str))
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process; one table; exit 1 on mismatch."""
    rows: List[str] = []
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode or 2
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
            rows.extend(l for l in lines if l.startswith("OUTPUT MISMATCH"))
        for name, m in result["metrics"].items():
            rows.append(f"{workload:12s} {name:40s} {m['value']:14.4f} "
                        f"{m['unit']}")
        rows.append(f"{workload:12s} {'failed_frac':40s} "
                    f"{result['failed'] / result['attempted']:14.4f} frac"
                    f"   [{time.perf_counter() - t0:.0f} s, correct="
                    f"{result['correct']}]")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
