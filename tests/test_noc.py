"""Tests for repro.noc: CDG deadlock analysis and the flit simulator."""

import numpy as np
import pytest

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem
from repro.heuristics import get_heuristic
from repro.noc import (
    ArrayFlitSimulator,
    DeadlockError,
    build_cdg,
    cdg_cycles,
    direction_class_vc,
    is_deadlock_free,
    single_vc,
)
from repro.utils.validation import InvalidParameterError
from repro.workloads import transpose_pattern, uniform_random_workload


@pytest.fixture
def ring_routing():
    """The 3x3 border ring whose single-VC CDG is cyclic."""
    mesh = Mesh(3, 3)
    pm = PowerModel(p_leak=0.0, p0=1.0, alpha=3.0, bandwidth=1000.0)
    comms = [
        Communication((0, 0), (2, 2), 500.0),
        Communication((0, 2), (2, 0), 480.0),
        Communication((2, 2), (0, 0), 460.0),
        Communication((2, 0), (0, 2), 440.0),
    ]
    prob = RoutingProblem(mesh, pm, comms)
    return Routing.from_moves(prob, ["HHVV", "VVHH", "HHVV", "VVHH"])


class TestCdg:
    def test_xy_routing_single_vc_is_deadlock_free(self, mesh8, pm_kh):
        comms = uniform_random_workload(mesh8, 25, 10.0, 100.0, rng=1)
        r = Routing.xy(RoutingProblem(mesh8, pm_kh, comms))
        assert is_deadlock_free(r, single_vc)

    def test_ring_cyclic_on_single_vc(self, ring_routing):
        assert not is_deadlock_free(ring_routing, single_vc)
        cycles = cdg_cycles(build_cdg(ring_routing, single_vc))
        assert cycles
        # a dependency cycle visits at least 4 channels on a mesh
        assert all(len(c) >= 5 for c in cycles)  # includes repeated endpoint

    def test_direction_class_always_deadlock_free(self, mesh8, pm_kh):
        """Manhattan paths + per-direction VCs: acyclic for any routing,
        here checked on every heuristic's output on a random instance."""
        comms = uniform_random_workload(mesh8, 20, 10.0, 100.0, rng=2)
        prob = RoutingProblem(mesh8, pm_kh, comms)
        for name in ("XY", "SG", "IG", "TB", "XYI", "PR"):
            res = get_heuristic(name).solve(prob)
            assert is_deadlock_free(res.routing, direction_class_vc), name

    def test_ring_acyclic_on_direction_class(self, ring_routing):
        assert is_deadlock_free(ring_routing, direction_class_vc)

    def test_bad_vc_assignment_rejected(self, ring_routing):
        with pytest.raises(InvalidParameterError):
            build_cdg(ring_routing, lambda i, d: -1)


class TestSimulatorBasics:
    def test_rejects_invalid_routing(self, mesh8, pm_kh):
        comms = [
            Communication((0, 0), (0, 3), 2000.0),
            Communication((0, 0), (0, 3), 2000.0),
        ]
        r = Routing.xy(RoutingProblem(mesh8, pm_kh, comms))
        with pytest.raises(InvalidParameterError, match="invalid routing"):
            ArrayFlitSimulator(r)

    def test_parameter_validation(self, ring_routing):
        with pytest.raises(InvalidParameterError):
            ArrayFlitSimulator(ring_routing, num_vcs=0)
        with pytest.raises(InvalidParameterError):
            ArrayFlitSimulator(ring_routing, buffer_flits=0)
        with pytest.raises(InvalidParameterError):
            ArrayFlitSimulator(ring_routing, packet_flits=0)
        sim = ArrayFlitSimulator(ring_routing)
        with pytest.raises(InvalidParameterError):
            sim.run(0)
        with pytest.raises(InvalidParameterError):
            sim.run(10, warmup=10)

    def test_vc_range_checked(self, ring_routing):
        with pytest.raises(InvalidParameterError):
            # direction-class needs 4
            ArrayFlitSimulator(ring_routing, num_vcs=2)

    def test_single_flow_full_throughput(self, mesh44, pm_kh):
        prob = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (2, 3), 1750.0)]
        )
        r = Routing.xy(prob)
        rep = ArrayFlitSimulator(r, packet_flits=4).run(8000, warmup=1000)
        (flow,) = rep.flows
        assert flow.achieved_fraction >= 0.98
        assert flow.mean_packet_latency > 0

    def test_conservation_delivered_at_most_injected(self, mesh8, pm_kh):
        comms = uniform_random_workload(mesh8, 10, 100.0, 800.0, rng=4)
        res = get_heuristic("PR").solve(RoutingProblem(mesh8, pm_kh, comms))
        rep = ArrayFlitSimulator(res.routing, packet_flits=4).run(
            4000, warmup=400
        )
        for f in rep.flows:
            assert f.delivered_flits <= f.injected_flits + 64  # warmup slack

    def test_utilization_matches_prediction(self, mesh44, pm_kh):
        comms = transpose_pattern(mesh44, rate=600.0)
        res = get_heuristic("PR").solve(RoutingProblem(mesh44, pm_kh, comms))
        assert res.valid
        rep = ArrayFlitSimulator(res.routing, packet_flits=8).run(
            20000, warmup=2000
        )
        loads = res.routing.link_loads()
        freqs = pm_kh.quantize(loads)
        predicted = np.where(freqs > 0, loads / np.maximum(freqs, 1e-12), 0.0)
        used = loads > 0
        err = np.abs(rep.link_utilization[used] - predicted[used])
        assert err.max() < 0.05

    def test_multipath_routing_accepted(self, fig2_problem):
        from repro.core.routing import RoutedFlow
        from repro.mesh.paths import Path

        mesh = fig2_problem.mesh
        r = Routing(
            fig2_problem,
            [
                [RoutedFlow(Path.xy(mesh, (0, 0), (1, 1)), 1.0)],
                [
                    RoutedFlow(Path.xy(mesh, (0, 0), (1, 1)), 1.0),
                    RoutedFlow(Path.yx(mesh, (0, 0), (1, 1)), 2.0),
                ],
            ],
        )
        rep = ArrayFlitSimulator(r, packet_flits=2).run(3000, warmup=300)
        assert len(rep.flows) == 3
        assert rep.total_delivered_flits > 0


class TestDeadlockBehaviour:
    def test_single_vc_deadlocks_under_pressure(self, ring_routing):
        sim = ArrayFlitSimulator(
            ring_routing,
            num_vcs=1,
            vc_of=single_vc,
            buffer_flits=1,
            packet_flits=32,
            deadlock_window=500,
        )
        with pytest.raises(DeadlockError):
            sim.run(40000)

    def test_direction_class_survives_same_pressure(self, ring_routing):
        rep = ArrayFlitSimulator(
            ring_routing, num_vcs=4, buffer_flits=1, packet_flits=32
        ).run(40000, warmup=2000)
        assert not rep.deadlocked
        assert min(f.achieved_fraction for f in rep.flows) > 0.9
