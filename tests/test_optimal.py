"""Tests for repro.optimal: exhaustive B&B, MILP, Frank–Wolfe relaxation."""

import numpy as np
import pytest

from repro import Communication, PowerModel, RoutingProblem
from repro.heuristics import BestOf
from repro.optimal import (
    frank_wolfe_relaxation,
    milp_single_path,
    optimal_single_path,
)
from repro.theory import diagonal_lower_bound
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


@pytest.fixture
def small_problem(mesh44, pm_kh):
    return make_random_problem(mesh44, pm_kh, 5, 400.0, 1800.0, seed=21)


class TestExhaustive:
    def test_figure2_1mp_optimum(self, fig2_problem):
        res = optimal_single_path(fig2_problem)
        assert res.feasible
        assert res.power == pytest.approx(56.0)

    def test_never_above_best_heuristic(self, mesh44, pm_kh):
        for seed in range(6):
            prob = make_random_problem(mesh44, pm_kh, 5, 300.0, 2000.0, seed=seed)
            opt = optimal_single_path(prob)
            best = BestOf().solve(prob)
            if best.valid:
                assert opt.feasible
                assert opt.power <= best.power + 1e-9

    def test_proves_infeasibility_by_pigeonhole(self, mesh8, pm_kh):
        """Three 1800 same-pair comms over a 2-link first band: every 1-MP
        assignment doubles up a band-0 link at 3600 > 3500."""
        comms = [Communication((0, 0), (2, 2), 1800.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        res = optimal_single_path(prob)
        assert res.proven_infeasible
        assert res.routing is None
        assert res.power == np.inf

    def test_search_space_guard(self, mesh8, pm_kh):
        comms = [Communication((0, 0), (7, 7), 10.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        with pytest.raises(InvalidParameterError, match="search space"):
            optimal_single_path(prob, max_nodes=1000)

    def test_respects_problem_order_in_result(self, small_problem):
        res = optimal_single_path(small_problem)
        assert res.feasible
        for i, c in enumerate(small_problem.comms):
            (path,) = res.routing.paths(i)
            assert path.src == c.src and path.snk == c.snk


class TestMilp:
    def test_matches_exhaustive_on_small_instances(self, mesh44, pm_kh):
        for seed in (1, 2, 3):
            prob = make_random_problem(mesh44, pm_kh, 4, 300.0, 2000.0, seed=seed)
            bb = optimal_single_path(prob)
            milp = milp_single_path(prob)
            assert bb.feasible == milp.feasible
            if bb.feasible:
                assert milp.power == pytest.approx(bb.power, rel=1e-9)

    def test_proves_infeasibility(self, mesh8, pm_kh):
        comms = [Communication((0, 0), (2, 2), 1800.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        res = milp_single_path(prob)
        assert not res.feasible

    def test_rejects_continuous_model(self, mesh44):
        pm = PowerModel.continuous_kim_horowitz()
        prob = make_random_problem(mesh44, pm, 3, 100.0, 500.0, seed=0)
        with pytest.raises(InvalidParameterError, match="discrete"):
            milp_single_path(prob)

    def test_variable_guard(self, mesh8, pm_kh):
        comms = [Communication((0, 0), (7, 7), 10.0)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        with pytest.raises(InvalidParameterError, match="path variables"):
            milp_single_path(prob, max_path_vars=100)


class TestFrankWolfe:
    def test_figure2_closes_gap(self, fig2_problem):
        fw = frank_wolfe_relaxation(fig2_problem, max_iter=500)
        # the continuous max-MP optimum of Figure 2 is the 2+2 balance: 32
        assert fw.objective == pytest.approx(32.0, rel=1e-3)
        assert fw.lower_bound == pytest.approx(32.0, rel=1e-2)
        assert fw.lower_bound <= fw.objective + 1e-9

    def test_lower_bound_below_single_path_optimum(self, small_problem):
        fw = frank_wolfe_relaxation(small_problem)
        opt = optimal_single_path(small_problem)
        if opt.feasible:
            dyn = small_problem.power.dynamic_power(opt.routing.link_loads())
            assert fw.lower_bound <= dyn + 1e-6

    def test_dominates_diagonal_bound_weakly(self, small_problem):
        """FW solves the true relaxation, so its certified bound should be
        at least as strong as the whole-chip diagonal bound."""
        fw = frank_wolfe_relaxation(small_problem, max_iter=500)
        assert fw.lower_bound >= diagonal_lower_bound(small_problem) - 1e-6

    def test_as_routing_structure(self, small_problem):
        fw = frank_wolfe_relaxation(small_problem)
        r = fw.as_routing()
        assert r.problem is small_problem
        for i, c in enumerate(small_problem.comms):
            rates = [f.rate for f in r.flows[i]]
            assert sum(rates) == pytest.approx(c.rate)

    def test_as_routing_max_paths_cap(self, small_problem):
        fw = frank_wolfe_relaxation(small_problem)
        r = fw.as_routing(max_paths=1)
        assert r.is_single_path
        with pytest.raises(InvalidParameterError):
            fw.as_routing(max_paths=0)

    def test_splitting_beats_single_path_when_pigeonholed(self, mesh8, pm_kh):
        """The 3x1800 same-pair instance is 1-MP-infeasible but max-MP
        feasible: FW must find loads within bandwidth."""
        comms = [Communication((0, 0), (2, 2), 1800.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        assert optimal_single_path(prob).proven_infeasible
        fw = frank_wolfe_relaxation(prob, max_iter=800)
        assert fw.loads.max() <= pm_kh.bandwidth * (1 + 1e-6)

    def test_rejects_empty_problem(self, mesh8, pm_kh):
        prob = RoutingProblem(mesh8, pm_kh, [])
        with pytest.raises(InvalidParameterError):
            frank_wolfe_relaxation(prob)

    def test_iterations_recorded(self, small_problem):
        fw = frank_wolfe_relaxation(small_problem, max_iter=5)
        assert 1 <= fw.iterations <= 5
