"""Regenerate or verify the NoC simulator probe fixtures.

Usage::

    python benchmarks/record_noc_probes.py            # rewrite the fixture
    python benchmarks/record_noc_probes.py --check    # verify, exit 1 on drift

The probe fixture (``tests/probes/noc_probes.json``) pins the **exact**
:class:`~repro.noc.simulator.SimulationReport` — per-flow counters,
hex-encoded rate fractions / latencies / utilisations, the full delivered
:class:`~repro.noc.simulator.PacketRecord` stream, and the deadlock cycle
of the one deliberately unsafe case — that the wormhole simulator
produces on a matrix of instances: pristine / faulty / derated / narrow
meshes, all three injection models, shallow and deep buffers, single-VC
and direction-class VC assignments, single-path and multipath routings.

The fixture was recorded from the **reference** ``FlitSimulator`` (the
test oracle, ``tests/noc_reference.py``) before the array engine
(:mod:`repro.noc.engine`) landed, and regeneration still records from
the oracle.  ``--check`` runs the matrix on the oracle *and* on
``ArrayFlitSimulator`` at the ambient ``REPRO_NATIVE`` tier, and names
the engine that drifted.  Regenerate only when a PR deliberately changes
simulator behaviour, and say so in the PR description.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the oracle: tests.noc_reference

import numpy as np  # noqa: E402

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem  # noqa: E402
from repro.core.routing import RoutedFlow  # noqa: E402
from repro.heuristics import get_heuristic  # noqa: E402
from repro.mesh.paths import Path  # noqa: E402
from repro.native import active_tier  # noqa: E402
from repro.noc import ArrayFlitSimulator, DeadlockError, single_vc  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.workloads import uniform_random_workload  # noqa: E402
from tests.noc_reference import FlitSimulator  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "probes" / "noc_probes.json"
#: what ``--check`` holds to the fixture (the oracle first)
ENGINES = {"reference": FlitSimulator, "array": ArrayFlitSimulator}


def report_to_jsonable(report) -> dict:
    """Exact (hex-float) snapshot of a :class:`SimulationReport`.

    Only non-zero utilisation entries are stored (keyed by link id) to
    keep the fixture readable; zero entries are implied by omission.
    """
    return {
        "cycles": report.cycles,
        "total_delivered_flits": report.total_delivered_flits,
        "deadlocked": report.deadlocked,
        "flows": [
            {
                "comm": f.comm_index,
                "rate_fraction": f.rate_fraction.hex(),
                "injected": f.injected_flits,
                "delivered": f.delivered_flits,
                "packets": f.delivered_packets,
                "mean_latency": f.mean_packet_latency.hex(),
            }
            for f in report.flows
        ],
        "utilization": {
            str(lid): float(u).hex()
            for lid, u in enumerate(report.link_utilization)
            if u != 0.0
        },
        "packets": [
            [p.flow, p.comm, p.injected_at, p.completed_at]
            for p in report.packets
        ],
    }


def run_to_jsonable(sim_cls, case: dict) -> dict:
    """Build a simulator from a case spec, run it, snapshot the outcome."""
    sim = sim_cls(case["routing"](), **case["sim"])
    try:
        report = sim.run(case["cycles"], warmup=case["warmup"])
    except DeadlockError as exc:
        return {"deadlock_error": str(exc)}
    return report_to_jsonable(report)


def _scenario_routing(scenario_name: str, heuristic: str, *, n: int, seed: int):
    scenario = get_scenario(scenario_name)
    mesh = scenario.build_mesh()
    comms = uniform_random_workload(
        mesh, n, 100.0, 1200.0, rng=np.random.default_rng(seed)
    )
    problem = RoutingProblem(mesh, scenario.power_model(), comms)
    result = get_heuristic(heuristic).solve(problem)
    assert result.valid, (scenario_name, heuristic, seed)
    return result.routing


def _pristine_routing(p: int, q: int, heuristic: str, *, n: int, seed: int,
                      rate_max: float = 1200.0):
    mesh = Mesh(p, q)
    problem = RoutingProblem(
        mesh,
        PowerModel.kim_horowitz(),
        uniform_random_workload(mesh, n, 100.0, rate_max, rng=seed),
    )
    result = get_heuristic(heuristic).solve(problem)
    assert result.valid, (p, q, heuristic, seed)
    return result.routing


def _multipath_routing():
    mesh = Mesh(4, 4)
    problem = RoutingProblem(
        mesh,
        PowerModel.kim_horowitz(),
        [
            Communication((0, 0), (2, 3), 900.0),
            Communication((3, 0), (0, 2), 500.0),
        ],
    )
    return Routing(
        problem,
        [
            [
                RoutedFlow(Path.xy(mesh, (0, 0), (2, 3)), 400.0),
                RoutedFlow(Path.yx(mesh, (0, 0), (2, 3)), 500.0),
            ],
            [RoutedFlow(Path.xy(mesh, (3, 0), (0, 2)), 500.0)],
        ],
    )


def _ring_routing():
    mesh = Mesh(3, 3)
    pm = PowerModel(p_leak=0.0, p0=1.0, alpha=3.0, bandwidth=1000.0)
    comms = [
        Communication((0, 0), (2, 2), 500.0),
        Communication((0, 2), (2, 0), 480.0),
        Communication((2, 2), (0, 0), 460.0),
        Communication((2, 0), (0, 2), 440.0),
    ]
    problem = RoutingProblem(mesh, pm, comms)
    return Routing.from_moves(problem, ["HHVV", "VVHH", "HHVV", "VVHH"])


def probe_cases() -> dict:
    """The probe matrix (insertion order is fixture order)."""
    return {
        "det-4x4-pr": {
            "routing": lambda: _pristine_routing(4, 4, "PR", n=5, seed=1),
            "sim": dict(injection="deterministic", packet_flits=4, seed=0,
                        collect_packets=True),
            "cycles": 800, "warmup": 100,
        },
        "bern-8x8-xy": {
            "routing": lambda: _pristine_routing(8, 8, "XY", n=12, seed=0),
            "sim": dict(injection="bernoulli", rate_scale=0.9, seed=3,
                        collect_packets=True),
            "cycles": 1000, "warmup": 200,
        },
        "bern-8x8-pr-sat": {
            "routing": lambda: _pristine_routing(8, 8, "PR", n=12, seed=0),
            "sim": dict(injection="bernoulli", rate_scale=1.7, seed=3,
                        buffer_flits=2),
            "cycles": 1000, "warmup": 200,
        },
        "burst-8x8-pr": {
            "routing": lambda: _pristine_routing(8, 8, "PR", n=12, seed=0),
            "sim": dict(injection="burst", rate_scale=1.1, seed=11,
                        collect_packets=True),
            "cycles": 1200, "warmup": 300,
        },
        "faulty-links-sg": {
            "routing": lambda: _scenario_routing("faulty-links", "SG",
                                                 n=8, seed=0),
            "sim": dict(injection="bernoulli", seed=9, collect_packets=True),
            "cycles": 800, "warmup": 100,
        },
        "hotspot-derate-pr": {
            "routing": lambda: _scenario_routing("hotspot-derate", "PR",
                                                 n=10, seed=0),
            "sim": dict(injection="burst", seed=7),
            "cycles": 900, "warmup": 150,
        },
        "narrow-4x16-pr": {
            "routing": lambda: _pristine_routing(4, 16, "PR", n=10, seed=2,
                                                 rate_max=900.0),
            "sim": dict(injection="deterministic", seed=0),
            "cycles": 800, "warmup": 0,
        },
        "tiny-buffers-ring": {
            "routing": _ring_routing,
            "sim": dict(injection="deterministic", buffer_flits=1,
                        packet_flits=16, seed=0, collect_packets=True),
            "cycles": 1500, "warmup": 200,
        },
        "multipath-4x4": {
            "routing": _multipath_routing,
            "sim": dict(injection="bernoulli", packet_flits=2, seed=4,
                        collect_packets=True),
            "cycles": 900, "warmup": 150,
        },
        "deadlock-ring-1vc": {
            "routing": _ring_routing,
            "sim": dict(injection="deterministic", num_vcs=1, vc_of=single_vc,
                        buffer_flits=1, packet_flits=32,
                        deadlock_window=300, seed=0),
            "cycles": 20000, "warmup": 0,
        },
    }


def snapshot(sim_cls=FlitSimulator) -> str:
    """The fixture text ``sim_cls`` produces on the probe matrix."""
    snap = {
        name: run_to_jsonable(sim_cls, case)
        for name, case in probe_cases().items()
    }
    return json.dumps(snap, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed fixture instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if args.check:
        if not FIXTURE.exists():
            print(f"DRIFT   fixture {FIXTURE} missing", file=sys.stderr)
            return 1
        want = FIXTURE.read_text()
        drifted = [n for n, cls in ENGINES.items() if snapshot(cls) != want]
        if drifted:
            print(
                f"DRIFT   NoC probes drifted on the {' and '.join(drifted)} "
                f"engine ({active_tier()} tier) — if intentional, "
                "regenerate with 'python benchmarks/record_noc_probes.py' "
                "and call the behaviour change out in the PR description",
                file=sys.stderr,
            )
            return 1
        print(f"ok      noc_probes.json (reference, array on {active_tier()})")
        return 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(snapshot())
    print(f"wrote   {FIXTURE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
