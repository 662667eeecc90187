#!/usr/bin/env python3
"""From routing to silicon: DVFS plans and routing tables.

A routing is only half a deployment.  This example takes the PR heuristic's
solution for a hotspot workload and derives the two artefacts a real chip
needs:

* the **DVFS plan** — which frequency each link is programmed to, how much
  leakage the idle links save (the link-shutdown technique of the related
  work), and how much dynamic power the discrete levels waste versus ideal
  continuous scaling;
* the **routing tables** — per-router match-action entries, and the
  destination-table conflicts that show why power-aware Manhattan routing
  needs per-flow state where XY routing gets away with plain
  destination-indexed tables.

Run:  python examples/dvfs_and_tables.py
"""

from repro import Mesh, PowerModel, RoutingProblem
from repro.core.frequency import routing_frequency_plan
from repro.heuristics import get_heuristic
from repro.noc import destination_table_conflicts, router_tables, source_routes
from repro.utils.tables import format_table
from repro.viz import load_legend, render_loads
from repro.workloads import hotspot_pattern


def main() -> None:
    mesh = Mesh(6, 6)
    power = PowerModel.kim_horowitz()
    comms = hotspot_pattern(mesh, rate=320.0, hotspot=(2, 2))
    problem = RoutingProblem(mesh, power, comms)

    pr = get_heuristic("PR").solve(problem)
    xy = get_heuristic("XY").solve(problem)
    print(
        f"hotspot workload: {len(comms)} flows into core (2,2); "
        f"XY {'valid' if xy.valid else 'INVALID'}"
        f"{f' at {xy.power:.0f} mW' if xy.valid else ''}, "
        f"PR {'valid' if pr.valid else 'INVALID'} at {pr.power:.0f} mW\n"
    )
    routing = pr.routing

    print(render_loads(mesh, routing.link_loads(), power=power))
    print(load_legend())

    plan = routing_frequency_plan(routing)
    rows = []
    for level, freq in enumerate(power.frequencies):
        count = int((plan.levels == level).sum())
        rows.append([f"{freq:.0f} Mb/s", count])
    rows.append(["off", mesh.num_links - plan.active_links])
    print("\nDVFS plan (links per frequency level):")
    print(format_table(["level", "links"], rows))
    print(
        f"mean utilisation of active links: {plan.mean_utilization:.2f}\n"
        f"leakage saved by switching idle links off: "
        f"{plan.shutdown_savings():.1f} mW\n"
        f"dynamic power lost to frequency quantisation: "
        f"{plan.quantization_overhead():.1f} mW"
    )

    tables = router_tables(routing)
    entries = sum(len(t) for t in tables.values())
    conflicts = destination_table_conflicts(routing)
    print(
        f"\nrouting tables: {entries} entries across {len(tables)} routers; "
        f"{len(conflicts)} routers need per-flow entries "
        f"(destination-indexed tables would be ambiguous there)"
    )
    xy_conflicts = destination_table_conflicts(xy.routing)
    print(f"the XY routing, by contrast, has {len(xy_conflicts)} conflicts.")

    sr = source_routes(routing)
    i = max(range(len(comms)), key=lambda k: comms[k].length)
    print(
        f"\nexample source route for {comms[i].src}->{comms[i].snk}: "
        f"{''.join(sr[i][0])}"
    )


if __name__ == "__main__":
    main()
