#!/usr/bin/env python3
"""Full system flow on real application traffic: map → route → validate.

Takes the four classic multimedia task graphs of the NoC literature
(VOPD, MPEG-4 decoder, Multi-Window Display, Picture-In-Picture — 44
tasks total), carves the 8×8 chip into per-application regions, maps each
application with simulated annealing, routes the resulting 49-strong
communication set with the paper's heuristics, and finally deploys the
winning routing on the flit-level simulator to confirm it delivers the
demanded throughput at nominal load.

Run:  python examples/published_apps.py [scale]
      scale = Mb/s per published MB/s (default 3.0)
"""

import sys

import numpy as np

from repro import Mesh, PowerModel, RoutingProblem
from repro.heuristics import PAPER_HEURISTICS, get_heuristic
from repro.noc import ArrayFlitSimulator
from repro.utils.tables import format_table
from repro.workloads import (
    annealed_placement,
    map_applications,
    mpeg4_app,
    mwd_app,
    pip_app,
    placement_cost,
    region_split,
    vopd_app,
)
from repro.workloads.apps import MPEG4_TASKS


def main(scale: float = 3.0) -> None:
    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    apps = [
        vopd_app(scale=scale),
        mpeg4_app(scale=scale),
        mwd_app(scale=scale),
        pip_app(scale=scale),
    ]

    # --- map ------------------------------------------------------------
    regions = region_split(mesh, [a.num_tasks for a in apps])
    placements = []
    print("Mapping (simulated annealing per region):")
    for app, region in zip(apps, regions):
        placement = annealed_placement(
            mesh, app, region=region, iterations=2000, seed=0
        )
        placements.append(placement)
        print(
            f"  {app.name:6s} {app.num_tasks:2d} tasks -> "
            f"rate-weighted distance {placement_cost(app, placement):.0f}"
        )
    sdram_core = placements[1][MPEG4_TASKS.index("sdram")]
    print(f"  (MPEG-4's SDRAM hub landed on core {sdram_core})\n")

    # --- route ----------------------------------------------------------
    comms = map_applications(apps, placements)
    problem = RoutingProblem(mesh, power, comms)
    print(
        f"Routing {len(comms)} communications, "
        f"total {problem.total_rate:.0f} Mb/s:"
    )
    rows, best = [], None
    for name in PAPER_HEURISTICS:
        res = get_heuristic(name).solve(problem)
        rows.append(
            [
                name,
                "yes" if res.valid else "NO",
                f"{res.power:.0f}" if res.valid else "-",
                f"{res.runtime_s * 1e3:.1f}",
            ]
        )
        if res.valid and (best is None or res.power < best.power):
            best = res
    print(format_table(["heuristic", "valid", "power mW", "ms"], rows))
    if best is None:
        raise SystemExit(
            "no heuristic routed this scale; lower it or split paths"
        )
    print(f"\nDeploying the {best.name} routing on the flit simulator...")

    # --- validate -------------------------------------------------------
    sim = ArrayFlitSimulator(best.routing, injection="bernoulli", seed=1)
    report = sim.run(12000, warmup=2400)
    ach = [
        f.achieved_fraction for f in report.flows if f.injected_flits > 0
    ]
    lat = [
        f.mean_packet_latency
        for f in report.flows
        if f.delivered_packets > 0
    ]
    print(
        f"  {len(report.flows)} flows: min achieved throughput "
        f"{min(ach):.2f}, mean packet latency {np.mean(lat):.1f} cycles, "
        f"max link utilisation {report.link_utilization.max():.2f}"
    )
    # Bernoulli arrivals on ~95%-utilised links wobble a few percent over
    # a finite window; sustained delivery below ~85% would mean real loss
    assert min(ach) > 0.85, "a flow failed to meet its demand"
    print("  all flows meet their demanded rates — routing deploys cleanly")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 3.0)
