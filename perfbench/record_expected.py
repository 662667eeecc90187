"""Record the expected outputs ``sweep`` and ``noc-curve`` are checked
against.

    python3 perfbench/record_expected.py 1 6

For every workload seed in ``[LO, HI)`` and every pass a run of
``run_seconds`` (from ``BENCHMARK.json``) makes, computes the digest of
the pass's Figure 7(b) sweep on the serial reference engine and of its
six scenario latency curves, and merges them into
``perfbench/expected.json``, keyed by the pass seed.  Seeds without a
recorded value are still checked at run time, against a recomputed
sample.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, digest, prepare_source  # noqa: E402


def main(argv) -> int:
    lo, hi = int(argv[1]), int(argv[2])
    prepare_source()
    import wl_noc
    import wl_sweep
    from repro.experiments.runner import run_sweep
    from repro.scenarios.runner import scenario_latency_curve

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    path = HERE / "expected.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    sweep = table.setdefault("sweep", {})
    noc = table.setdefault("noc-curve", {})
    for seed in range(lo, hi):
        for k in range(wl_sweep.passes(seconds)):
            sub = wl_sweep.pass_seed(seed, k)
            sweep[str(sub)] = wl_sweep.sweep_digest(
                run_sweep(wl_sweep.config(sub), jobs=1))
        for k in range(wl_noc.passes(seconds)):
            sub = wl_noc.pass_seed(seed, k)
            curves = [
                [wl_noc.curve_digest(scenario_latency_curve(
                    name, seed=sc_seed, cycles=wl_noc.CYCLES,
                    warmup=wl_noc.WARMUP))]
                for name, sc_seed, _ in wl_noc.deployments(sub)
            ]
            noc[str(sub)] = hashlib.sha256(
                digest(curves).encode()).hexdigest()
        print(f"seed {seed} recorded", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
