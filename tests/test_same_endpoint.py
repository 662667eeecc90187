"""Tests for the shared-endpoint exact solvers (the paper's open problem)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.optimal import (
    flow_to_routing,
    optimal_same_endpoint_single_path,
    optimal_single_path,
    same_endpoint_flow,
    same_endpoint_gap,
)
from repro.theory.bounds import diagonal_lower_bound
from repro.utils.validation import InvalidParameterError


def shared_problem(mesh, power, rates, src=(0, 0), snk=None):
    snk = snk or (mesh.p - 1, mesh.q - 1)
    return RoutingProblem(
        mesh, power, [Communication(src, snk, float(r)) for r in rates]
    )


class TestEndpointValidation:
    def test_mixed_endpoints_rejected(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (3, 3), 100.0),
                Communication((0, 1), (3, 3), 100.0),
            ],
        )
        with pytest.raises(InvalidParameterError):
            optimal_same_endpoint_single_path(problem)
        with pytest.raises(InvalidParameterError):
            same_endpoint_gap(problem)

    def test_empty_rejected(self, mesh44, pm_kh):
        problem = RoutingProblem(mesh44, pm_kh, [])
        with pytest.raises(InvalidParameterError):
            optimal_same_endpoint_single_path(problem)


class TestFlowSandwich:
    def test_fig2_flow_matches_paper_2mp(self, mesh2, pm_fig2, fig2_problem):
        """On the 2x2 there are two paths; the optimum is the paper's 32."""
        flow = same_endpoint_flow(mesh2, (0, 0), (1, 1), 4.0, pm_fig2, segments=64)
        assert flow.feasible
        routing = flow_to_routing(fig2_problem, flow.loads)
        assert routing.is_valid()
        assert routing.total_power() == pytest.approx(32.0)

    def test_sandwich_is_ordered(self, mesh44):
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        flow = same_endpoint_flow(mesh44, (0, 0), (3, 3), 2000.0, pm)
        assert flow.feasible
        assert flow.lower_bound <= flow.upper_bound
        assert flow.gap >= 0

    def test_sandwich_tightens_with_segments(self, mesh44):
        pm = PowerModel.dynamic_only(alpha=3.0, bandwidth=float("inf"))
        coarse = same_endpoint_flow(mesh44, (0, 0), (3, 3), 1000.0, pm, segments=4)
        fine = same_endpoint_flow(mesh44, (0, 0), (3, 3), 1000.0, pm, segments=64)
        assert fine.gap <= coarse.gap + 1e-12

    def test_lower_bound_dominates_nothing_below_ideal(self, mesh44):
        """Both the LP-lower and the ideal-spread bound must sit below the
        feasible upper bound."""
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        rates = [900.0, 700.0, 500.0]
        problem = shared_problem(mesh44, pm, rates)
        flow = same_endpoint_flow(mesh44, (0, 0), (3, 3), sum(rates), pm)
        ideal = diagonal_lower_bound(problem)
        assert flow.lower_bound <= flow.upper_bound * (1 + 1e-9)
        assert ideal <= flow.upper_bound * (1 + 1e-9)

    def test_infeasible_total_rate(self, mesh2, pm_fig2):
        """More demand than both band links can carry: no max-MP routing."""
        flow = same_endpoint_flow(mesh2, (0, 0), (1, 1), 100.0, pm_fig2)
        assert not flow.feasible
        assert flow.upper_bound == float("inf")

    def test_loads_respect_conservation(self, mesh44):
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        total = 1700.0
        flow = same_endpoint_flow(mesh44, (0, 0), (2, 3), total, pm)
        # flow out of the source equals the total rate
        out_src = 0.0
        for head in ((1, 0), (0, 1)):
            lid = mesh44.link_between((0, 0), head)
            out_src += flow.loads[lid]
        assert out_src == pytest.approx(total, rel=1e-6)

    def test_segment_validation(self, mesh44, pm_kh):
        with pytest.raises(InvalidParameterError):
            same_endpoint_flow(mesh44, (0, 0), (3, 3), 100.0, pm_kh, segments=1)
        with pytest.raises(InvalidParameterError):
            same_endpoint_flow(mesh44, (0, 0), (3, 3), -5.0, pm_kh)


class TestFlowToRouting:
    def test_loads_roundtrip(self, mesh44):
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        rates = [800.0, 600.0, 400.0]
        problem = shared_problem(mesh44, pm, rates)
        flow = same_endpoint_flow(mesh44, (0, 0), (3, 3), sum(rates), pm)
        routing = flow_to_routing(problem, flow.loads)
        np.testing.assert_allclose(
            routing.link_loads(), flow.loads, atol=1e-6 * sum(rates)
        )

    def test_each_comm_fully_routed(self, mesh44):
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        rates = [1000.0, 300.0]
        problem = shared_problem(mesh44, pm, rates)
        flow = same_endpoint_flow(mesh44, (0, 0), (3, 3), sum(rates), pm)
        routing = flow_to_routing(problem, flow.loads)
        for i, comm in enumerate(problem.comms):
            assert sum(f.rate for f in routing.flows[i]) == pytest.approx(
                comm.rate, rel=1e-9
            )


class TestSinglePathDp:
    def test_fig2_dp_is_56(self, fig2_problem):
        dp = optimal_same_endpoint_single_path(fig2_problem)
        assert dp.power == pytest.approx(56.0)
        assert dp.feasible

    def test_matches_exhaustive(self, pm_kh):
        mesh = Mesh(3, 4)
        problem = shared_problem(
            mesh, pm_kh, [900.0, 500.0, 200.0], src=(0, 0), snk=(2, 3)
        )
        dp = optimal_same_endpoint_single_path(problem)
        ex = optimal_single_path(problem)
        assert dp.power == pytest.approx(ex.power)

    def test_matches_exhaustive_dynamic_only(self):
        pm = PowerModel.dynamic_only(alpha=3.0, bandwidth=float("inf"))
        mesh = Mesh(3, 3)
        problem = shared_problem(mesh, pm, [5.0, 3.0, 2.0])
        dp = optimal_same_endpoint_single_path(problem)
        ex = optimal_single_path(problem)
        assert dp.power == pytest.approx(ex.power)

    def test_equal_rates_grouping(self):
        """Equal rates collapse the state space but not the answer."""
        pm = PowerModel.dynamic_only(alpha=3.0, bandwidth=float("inf"))
        mesh = Mesh(3, 3)
        problem = shared_problem(mesh, pm, [4.0, 4.0, 4.0, 4.0])
        dp = optimal_same_endpoint_single_path(problem)
        ex = optimal_single_path(problem)
        assert dp.power == pytest.approx(ex.power)
        # grouped DP must explore far fewer states than 3^... worst case
        assert dp.explored_states < 500

    def test_routing_is_single_path_and_consistent(self, pm_kh):
        mesh = Mesh(4, 4)
        problem = shared_problem(mesh, pm_kh, [800.0, 800.0, 400.0])
        dp = optimal_same_endpoint_single_path(problem)
        assert dp.routing.is_single_path
        assert dp.routing.total_power() == pytest.approx(dp.power)

    def test_single_comm_straight_line(self, pm_kh):
        mesh = Mesh(4, 4)
        problem = shared_problem(mesh, pm_kh, [900.0], src=(0, 0), snk=(0, 3))
        dp = optimal_same_endpoint_single_path(problem)
        assert dp.feasible
        assert dp.routing.paths(0)[0].moves == "HHH"

    def test_state_cap(self, pm_kh):
        mesh = Mesh(8, 8)
        problem = shared_problem(
            mesh, pm_kh, [float(100 + i) for i in range(10)]
        )
        with pytest.raises(InvalidParameterError):
            optimal_same_endpoint_single_path(problem, max_states=10)

    def test_infeasible_instance_reports_inf(self, mesh2, pm_fig2):
        problem = shared_problem(
            mesh2, pm_fig2, [4.0, 4.0, 4.0], snk=(1, 1)
        )
        dp = optimal_same_endpoint_single_path(problem)
        assert not dp.feasible
        assert dp.power == float("inf")


class TestGapRecord:
    def test_gap_orderings(self):
        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
        mesh = Mesh(5, 5)
        problem = shared_problem(mesh, pm, [900.0, 700.0, 500.0, 300.0])
        gap = same_endpoint_gap(problem)
        # multi-path at least as good as single-path (dynamic model)
        assert gap.single_vs_multi >= 1.0 - 1e-6
        # XY routes everything on one path: never better than the optimum
        assert gap.xy_vs_single >= 1.0 - 1e-9
        # bounds bracket: lower <= upper <= single-path dynamic power
        assert gap.flow_lower <= gap.flow_upper * (1 + 1e-9)
        assert gap.flow_upper <= gap.single_path_dynamic * (1 + 1e-9)

    def test_single_comm_gap_is_one(self):
        """One communication: splitting helps (multi < single) but XY is
        already one optimal single path under a dynamic-only model."""
        pm = PowerModel.dynamic_only(alpha=3.0, bandwidth=float("inf"))
        mesh = Mesh(4, 4)
        problem = shared_problem(mesh, pm, [10.0])
        gap = same_endpoint_gap(problem)
        assert gap.xy_vs_single == pytest.approx(1.0)
        assert gap.single_vs_multi >= 1.0


@settings(max_examples=20, deadline=None)
@given(
    rates=st.lists(
        st.floats(1.0, 8.0, allow_nan=False), min_size=1, max_size=4
    ),
    du=st.integers(1, 3),
    dv=st.integers(1, 3),
)
def test_property_dp_beats_every_heuristic(rates, du, dv):
    """The DP optimum lower-bounds every single-path heuristic."""
    from repro.heuristics import PAPER_HEURISTICS, get_heuristic

    pm = PowerModel.dynamic_only(alpha=3.0, bandwidth=float("inf"))
    mesh = Mesh(du + 1, dv + 1)
    problem = shared_problem(mesh, pm, rates, snk=(du, dv))
    dp = optimal_same_endpoint_single_path(problem)
    for name in PAPER_HEURISTICS:
        res = get_heuristic(name).solve(problem)
        if res.valid:
            assert dp.power <= res.power * (1 + 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    total=st.floats(10.0, 3000.0, allow_nan=False),
    du=st.integers(1, 4),
    dv=st.integers(1, 4),
)
def test_property_flow_bounds_bracket_ideal(total, du, dv):
    """LP sandwich brackets; ideal-spread bound never exceeds the upper."""
    pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=3500.0)
    mesh = Mesh(du + 1, dv + 1)
    flow = same_endpoint_flow(mesh, (0, 0), (du, dv), total, pm, segments=24)
    if not flow.feasible:
        return
    assert flow.lower_bound <= flow.upper_bound * (1 + 1e-9)
    problem = shared_problem(mesh, pm, [total], snk=(du, dv))
    assert diagonal_lower_bound(problem) <= flow.upper_bound * (1 + 1e-6)
