"""Tests for repro.core.frequency (DVFS plans) and repro.noc.tables."""

import numpy as np
import pytest

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem
from repro.core.frequency import assign_frequencies, routing_frequency_plan
from repro.noc.tables import (
    destination_table_conflicts,
    router_tables,
    source_routes,
)
from repro.utils.validation import InvalidParameterError
from repro.workloads import uniform_random_workload


class TestFrequencyAssignment:
    def test_levels_and_frequencies(self, pm_kh):
        loads = np.array([0.0, 500.0, 1000.0, 2000.0, 3500.0])
        plan = assign_frequencies(pm_kh, loads)
        assert list(plan.frequencies) == [0.0, 1000.0, 1000.0, 2500.0, 3500.0]
        assert list(plan.levels) == [-1, 0, 0, 1, 2]
        assert plan.active_links == 4

    def test_utilization_definition(self, pm_kh):
        plan = assign_frequencies(pm_kh, np.array([500.0, 2500.0]))
        assert plan.utilization[0] == pytest.approx(0.5)
        assert plan.utilization[1] == pytest.approx(1.0)
        assert 0.5 < plan.mean_utilization < 1.0

    def test_rejects_overload(self, pm_kh):
        with pytest.raises(InvalidParameterError):
            assign_frequencies(pm_kh, np.array([3600.0]))

    def test_shutdown_savings(self, pm_kh):
        loads = np.zeros(10)
        loads[:3] = 100.0
        plan = assign_frequencies(pm_kh, loads)
        assert plan.shutdown_savings() == pytest.approx(7 * 16.9)

    def test_quantization_overhead_positive_for_discrete(self, pm_kh):
        plan = assign_frequencies(pm_kh, np.array([100.0]))
        # the link must clock at 1000 for a 100 Mb/s load: big overhead
        assert plan.quantization_overhead() > 0

    def test_quantization_overhead_zero_for_continuous(self):
        pm = PowerModel.continuous_kim_horowitz()
        plan = assign_frequencies(pm, np.array([100.0, 900.0]))
        assert plan.quantization_overhead() == pytest.approx(0.0)
        assert list(plan.levels) == [-2, -2]

    def test_headroom(self, pm_kh):
        plan = assign_frequencies(pm_kh, np.array([0.0, 800.0]))
        assert plan.headroom()[0] == 0.0
        assert plan.headroom()[1] == pytest.approx(200.0)

    def test_routing_plan_wrapper(self, random_problem):
        r = Routing.xy(random_problem)
        if r.is_valid():
            plan = routing_frequency_plan(r)
            assert plan.active_links == int(
                np.count_nonzero(r.link_loads() > 0)
            )


class TestRoutingTables:
    @pytest.fixture
    def routing(self, mesh44, pm_kh):
        prob = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (2, 2), 500.0),
                Communication((1, 0), (2, 2), 500.0),
            ],
        )
        # comm 0 goes XY (east first), comm 1 goes YX (south first)
        return Routing.from_moves(prob, ["HHVV", "VHH"])

    def test_source_routes_ports(self, routing):
        routes = source_routes(routing)
        assert routes[0][0] == ["E", "E", "S", "S"]
        assert routes[1][0] == ["S", "E", "E"]

    def test_router_tables_cover_transit_routers(self, routing):
        tables = router_tables(routing)
        assert tables[(0, 0)][(0, 0)] == "E"
        assert tables[(1, 0)][(1, 0)] == "S"
        # the sink has no entry
        assert (2, 2) not in tables

    def test_xy_routing_has_no_destination_conflicts(self, mesh8, pm_kh):
        comms = uniform_random_workload(mesh8, 25, 10.0, 100.0, rng=6)
        r = Routing.xy(RoutingProblem(mesh8, pm_kh, comms))
        assert destination_table_conflicts(r) == []

    def test_diverging_flows_conflict(self, mesh44, pm_kh):
        """Two same-pair flows on different routes need per-flow tables at
        their shared source router."""
        prob = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (2, 2), 400.0),
                Communication((0, 0), (2, 2), 400.0),
            ],
        )
        r = Routing.from_moves(prob, ["HHVV", "VVHH"])
        conflicts = destination_table_conflicts(r)
        assert any(
            c.router == (0, 0) and c.destination == (2, 2) for c in conflicts
        )
        c0 = [c for c in conflicts if c.router == (0, 0)][0]
        assert set(c0.ports) == {"E", "S"}

    def test_multipath_flow_conflicts_detected(self, fig2_problem):
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
        conflicts = destination_table_conflicts(r)
        assert len(conflicts) == 1
        assert conflicts[0].router == (0, 0)


class TestConvergence:
    def test_convergence_study_traces(self):
        from repro.experiments.convergence import convergence_study
        from repro.workloads import uniform_random_workload as urw

        traces = convergence_study(
            lambda mesh, rng: urw(mesh, 10, 100.0, 1200.0, rng=rng),
            "PR",
            trials=24,
            seed=5,
        )
        names = {t.name for t in traces}
        assert "failure_ratio" in names
        for t in traces:
            assert len(t.checkpoints) == len(t.means) == len(t.half_widths)
            # CI half-widths shrink (weakly) with more trials
            assert t.half_widths[-1] <= t.half_widths[0] + 1e-9

    def test_final_means_are_the_sweep_point(self):
        """A stochastic member (SA) is reseeded per trial exactly as in
        ``run_point``, so the traces end on the point's aggregates."""
        from repro.experiments import UniformRandomFactory, run_point
        from repro.experiments.convergence import convergence_study
        from repro.heuristics.best import PAPER_HEURISTICS

        workload = UniformRandomFactory(20, 100.0, 2500.0)
        traces = {
            t.name: t
            for t in convergence_study(workload, "SA", trials=8, seed=5)
        }
        sa = run_point(
            Mesh(8, 8), PowerModel.kim_horowitz(), workload, 8, 5,
            tuple(PAPER_HEURISTICS) + ("SA",),
        ).stats["SA"]
        assert traces["failure_ratio"].means[-1] == pytest.approx(
            sa.failure_ratio, abs=1e-12
        )
        assert traces["norm_power_inverse"].means[-1] == pytest.approx(
            sa.norm_power_inverse, abs=1e-12
        )

    def test_stable_from(self):
        from repro.experiments.convergence import ConvergenceTrace

        t = ConvergenceTrace(
            "x", (10, 20, 40), (0.5, 0.5, 0.5), (0.3, 0.15, 0.05)
        )
        assert t.stable_from(0.2) == 20
        assert t.stable_from(0.01) is None

    def test_rejects_tiny_trials(self):
        from repro.experiments.convergence import convergence_study

        with pytest.raises(InvalidParameterError):
            convergence_study(lambda m, r: [], "PR", trials=2)


class TestLadders:
    def test_uniform_ladder_spacing(self):
        from repro.core import uniform_ladder

        lad = uniform_ladder(4, 3500.0)
        assert lad == (875.0, 1750.0, 2625.0, 3500.0)
        assert uniform_ladder(1, 3500.0) == (3500.0,)

    def test_geometric_ladder_shape(self):
        from repro.core import geometric_ladder

        lad = geometric_ladder(3, 3200.0, ratio=2.0)
        assert lad == (800.0, 1600.0, 3200.0)
        # geometric resolves the low range finer than uniform
        from repro.core import uniform_ladder

        uni = uniform_ladder(3, 3200.0)
        assert lad[0] < uni[0]

    def test_ladders_build_valid_power_models(self, pm_kh):
        from repro.core import geometric_ladder, uniform_ladder

        for lad in (
            uniform_ladder(5, pm_kh.bandwidth),
            geometric_ladder(5, pm_kh.bandwidth),
        ):
            model = pm_kh.with_frequencies(lad)
            assert model.is_discrete
            assert model.bandwidth == pm_kh.bandwidth
            # quantisation respects the new table
            q = model.quantize([1.0])
            assert q[0] == lad[0]

    def test_parameter_validation(self):
        from repro.core import geometric_ladder, uniform_ladder

        with pytest.raises(InvalidParameterError):
            uniform_ladder(0, 3500.0)
        with pytest.raises(InvalidParameterError):
            uniform_ladder(3, 0.0)
        with pytest.raises(InvalidParameterError):
            geometric_ladder(3, 3500.0, ratio=1.0)
        with pytest.raises(InvalidParameterError):
            geometric_ladder(0, 3500.0)

    def test_refined_nested_ladder_never_costs_more(self, pm_kh):
        """Nested refinement can only lower each link's power."""
        from repro.core import uniform_ladder

        coarse = pm_kh.with_frequencies(uniform_ladder(2, pm_kh.bandwidth))
        fine = pm_kh.with_frequencies(uniform_ladder(8, pm_kh.bandwidth))
        loads = np.linspace(1.0, pm_kh.bandwidth, 50)
        assert np.all(fine.link_power(loads) <= coarse.link_power(loads) + 1e-9)
