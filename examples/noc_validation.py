#!/usr/bin/env python3
"""Deploy a computed routing on the flit-level NoC simulator.

The paper assumes table-driven routing with "a deadlock avoidance
technique ... such as resource ordering or escape channels".  This example
closes the loop: it routes a transpose-pattern workload with the PR
heuristic, checks the channel-dependency graph, executes the routing on
the wormhole simulator with DVFS-scaled link speeds, and compares

* predicted per-link utilisation (load / assigned frequency) against the
  utilisation the simulator actually measures, and
* the unprotected single-VC deployment against the direction-class
  4-VC resource-ordering scheme on an adversarial ring workload.

Run:  python examples/noc_validation.py
"""

import numpy as np

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem
from repro.heuristics import get_heuristic
from repro.noc import (
    ArrayFlitSimulator,
    DeadlockError,
    direction_class_vc,
    is_deadlock_free,
    single_vc,
)
from repro.workloads import transpose_pattern


def predicted_vs_measured() -> None:
    mesh = Mesh(4, 4)
    power = PowerModel.kim_horowitz()
    comms = transpose_pattern(mesh, rate=600.0)
    problem = RoutingProblem(mesh, power, comms)
    res = get_heuristic("PR").solve(problem)
    assert res.valid, "PR should route the transpose pattern"
    routing = res.routing

    print(
        f"PR routed {len(comms)} transpose communications; "
        f"power {res.power:.1f} mW; "
        f"deadlock-free under direction-class VCs: "
        f"{is_deadlock_free(routing, direction_class_vc)}"
    )

    sim = ArrayFlitSimulator(
        routing, num_vcs=4, buffer_flits=4, packet_flits=8
    )
    rep = sim.run(30000, warmup=3000)

    loads = routing.link_loads()
    freqs = problem.power.quantize(loads)
    predicted = np.where(freqs > 0, loads / np.maximum(freqs, 1e-12), 0.0)
    used = loads > 0
    err = np.abs(rep.link_utilization[used] - predicted[used])
    print(
        f"link utilisation: predicted vs simulated — mean |err| = "
        f"{err.mean():.3f}, max |err| = {err.max():.3f} over "
        f"{int(used.sum())} active links"
    )
    ach = [f.achieved_fraction for f in rep.flows]
    print(
        f"flow throughput achieved: min {min(ach):.2f}, "
        f"mean {np.mean(ach):.2f} of demand"
    )
    lat = [f.mean_packet_latency for f in rep.flows if f.delivered_packets]
    print(f"mean packet latency: {np.mean(lat):.1f} cycles\n")


def deadlock_demo() -> None:
    mesh = Mesh(3, 3)
    power = PowerModel(p_leak=0.0, p0=1.0, alpha=3.0, bandwidth=1000.0)
    comms = [
        Communication((0, 0), (2, 2), 500.0),
        Communication((0, 2), (2, 0), 480.0),
        Communication((2, 2), (0, 0), 460.0),
        Communication((2, 0), (0, 2), 440.0),
    ]
    problem = RoutingProblem(mesh, power, comms)
    ring = Routing.from_moves(problem, ["HHVV", "VVHH", "HHVV", "VVHH"])
    print(
        "adversarial border ring: CDG acyclic with 1 VC? "
        f"{is_deadlock_free(ring, single_vc)} — with direction-class VCs? "
        f"{is_deadlock_free(ring, direction_class_vc)}"
    )
    try:
        ArrayFlitSimulator(
            ring, num_vcs=1, vc_of=single_vc, buffer_flits=1, packet_flits=32,
            deadlock_window=500,
        ).run(40000)
        print("single VC: survived (scheduling got lucky)")
    except DeadlockError:
        print("single VC: hard wormhole deadlock, as the cyclic CDG predicts")
    rep = ArrayFlitSimulator(
        ring, num_vcs=4, buffer_flits=1, packet_flits=32
    ).run(40000, warmup=2000)
    ach = [round(f.achieved_fraction, 2) for f in rep.flows]
    print(f"direction-class VCs: no deadlock, throughput {ach}")


if __name__ == "__main__":
    predicted_vs_measured()
    deadlock_demo()
