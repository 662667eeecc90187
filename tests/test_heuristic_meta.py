"""Tests for the metaheuristic extensions: SA, GA, TABU."""

from __future__ import annotations

import pytest

from repro import Communication, RoutingProblem
from repro.heuristics import (
    META_HEURISTICS,
    GeneticRouting,
    SimulatedAnnealing,
    TabuRouting,
    available_heuristics,
    get_heuristic,
)
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


FAST_SA = dict(iterations=400, seed=7)
FAST_GA = dict(population=12, generations=8, seed=7)
FAST_TABU = dict(iterations=40, neighborhood=16, seed=7)


@pytest.fixture
def small_problem(mesh44, pm_kh) -> RoutingProblem:
    return make_random_problem(mesh44, pm_kh, 6, 200.0, 1500.0, seed=99)


class TestRegistry:
    def test_all_registered(self):
        names = available_heuristics()
        for name in META_HEURISTICS:
            assert name in names

    def test_get_by_name(self):
        assert isinstance(get_heuristic("SA"), SimulatedAnnealing)
        assert isinstance(get_heuristic("GA"), GeneticRouting)
        assert isinstance(get_heuristic("TABU"), TabuRouting)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=0),
            dict(restarts=0),
            dict(resample_prob=1.5),
            dict(accept0=0.0),
            dict(accept0=1.0),
            dict(t_end_frac=0.0),
        ],
    )
    def test_sa_rejects(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SimulatedAnnealing(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population=3),
            dict(generations=0),
            dict(tournament=1),
            dict(tournament=99),
            dict(crossover_prob=-0.1),
            dict(mutation_prob=2.0),
            dict(elite=32),
        ],
    )
    def test_ga_rejects(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GeneticRouting(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=0),
            dict(tenure=0),
            dict(neighborhood=0),
            dict(hot_links=0),
        ],
    )
    def test_tabu_rejects(self, kwargs):
        with pytest.raises(InvalidParameterError):
            TabuRouting(**kwargs)


class TestBasicBehaviour:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SimulatedAnnealing(**FAST_SA),
            lambda: GeneticRouting(**FAST_GA),
            lambda: TabuRouting(**FAST_TABU),
        ],
        ids=["SA", "GA", "TABU"],
    )
    def test_produces_single_path_manhattan_routing(self, make, small_problem):
        result = make().solve(small_problem)
        routing = result.routing
        assert routing.is_single_path
        for i, comm in enumerate(small_problem.comms):
            path = routing.paths(i)[0]
            assert path.src == comm.src and path.snk == comm.snk
            assert path.length == comm.length  # shortest (Manhattan) path

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (SimulatedAnnealing, FAST_SA),
            (GeneticRouting, FAST_GA),
            (TabuRouting, FAST_TABU),
        ],
        ids=["SA", "GA", "TABU"],
    )
    def test_deterministic_given_seed(self, cls, kwargs, small_problem):
        r1 = cls(**kwargs).solve(small_problem)
        r2 = cls(**kwargs).solve(small_problem)
        assert r1.power == pytest.approx(r2.power)
        for i in range(small_problem.num_comms):
            assert r1.routing.paths(i)[0].moves == r2.routing.paths(i)[0].moves

    def test_sa_not_worse_than_its_init(self, small_problem):
        """Best-seen tracking guarantees SA never loses to its start."""
        init = get_heuristic("SG").solve(small_problem)
        sa = SimulatedAnnealing(iterations=300, init="SG", seed=3).solve(
            small_problem
        )
        graded = small_problem.power.total_power_graded
        assert graded(sa.routing.link_loads()) <= graded(
            init.routing.link_loads()
        ) * (1 + 1e-9)

    def test_tabu_not_worse_than_its_init(self, small_problem):
        init = get_heuristic("SG").solve(small_problem)
        tb = TabuRouting(**FAST_TABU).solve(small_problem)
        graded = small_problem.power.total_power_graded
        assert graded(tb.routing.link_loads()) <= graded(
            init.routing.link_loads()
        ) * (1 + 1e-9)

    def test_ga_not_worse_than_its_seeds(self, small_problem):
        """Elitism + seeded population: GA's answer beats every seed."""
        ga = GeneticRouting(**FAST_GA).solve(small_problem)
        graded = small_problem.power.total_power_graded
        for name in ("XY", "YX", "SG"):
            seed_r = get_heuristic(name).solve(small_problem)
            assert graded(ga.routing.link_loads()) <= graded(
                seed_r.routing.link_loads()
            ) * (1 + 1e-9)


class TestOptimality:
    def test_sa_finds_fig2_single_path_optimum(self, fig2_problem):
        """Two same-endpoint comms on a 2x2: best 1-MP splits XY/YX (P=56)."""
        result = SimulatedAnnealing(iterations=500, seed=0).solve(fig2_problem)
        assert result.valid
        assert result.power == pytest.approx(56.0)

    def test_ga_finds_fig2_single_path_optimum(self, fig2_problem):
        result = GeneticRouting(population=16, generations=20, seed=0).solve(
            fig2_problem
        )
        assert result.valid
        assert result.power == pytest.approx(56.0)

    def test_tabu_finds_fig2_single_path_optimum(self, fig2_problem):
        result = TabuRouting(iterations=30, seed=0).solve(fig2_problem)
        assert result.valid
        assert result.power == pytest.approx(56.0)

    def test_sa_matches_exhaustive_on_tiny_instance(self, mesh44, pm_kh):
        from repro.optimal import optimal_single_path

        problem = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (2, 2), 1200.0),
                Communication((0, 0), (2, 2), 1200.0),
                Communication((2, 0), (0, 2), 900.0),
            ],
        )
        opt = optimal_single_path(problem)
        sa = SimulatedAnnealing(iterations=2000, restarts=2, seed=1).solve(problem)
        assert sa.valid
        assert sa.power <= opt.power * (1 + 0.05)


class TestEdgeCases:
    def test_straight_line_only_instance(self, mesh44, pm_kh):
        """All comms on one axis: a single Manhattan path each, no moves."""
        problem = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (0, 3), 800.0),
                Communication((1, 0), (1, 2), 600.0),
                Communication((0, 1), (3, 1), 400.0),
            ],
        )
        for name in META_HEURISTICS:
            result = get_heuristic(name).solve(problem)
            assert result.valid
            # the unique Manhattan routing: power is forced
            assert result.power == pytest.approx(
                get_heuristic("XY").solve(problem).power
            )

    def test_single_communication(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (3, 3), 500.0)]
        )
        for name in META_HEURISTICS:
            result = get_heuristic(name).solve(problem)
            assert result.valid

    def test_empty_problem_rejected(self, mesh44, pm_kh):
        problem = RoutingProblem(mesh44, pm_kh, [])
        for name in META_HEURISTICS:
            with pytest.raises(InvalidParameterError):
                get_heuristic(name).solve(problem)

    def test_overloaded_instance_reported_invalid(self, mesh2, pm_fig2):
        """Demand beyond any routing's capacity: heuristics flag failure."""
        comms = [Communication((0, 0), (1, 1), 4.0) for _ in range(4)]
        problem = RoutingProblem(mesh2, pm_fig2, comms)
        for name in META_HEURISTICS:
            result = get_heuristic(name).solve(problem)
            assert not result.valid
            assert result.power == float("inf")
            assert result.power_inverse == 0.0


class TestRepair:
    def test_sa_repairs_xy_failure(self, mesh8, pm_kh):
        """An instance XY overloads but SA routes validly."""
        # ten comms forced through the same XY row
        comms = [Communication((0, 0), (4, 7), 700.0) for _ in range(6)]
        problem = RoutingProblem(mesh8, pm_kh, comms)
        assert not get_heuristic("XY").solve(problem).valid
        sa = SimulatedAnnealing(iterations=3000, seed=2).solve(problem)
        assert sa.valid

    def test_tabu_repairs_sg_overload(self, mesh8, pm_kh):
        comms = [Communication((0, 0), (4, 7), 700.0) for _ in range(6)]
        problem = RoutingProblem(mesh8, pm_kh, comms)
        tabu = TabuRouting(iterations=200, seed=2).solve(problem)
        assert tabu.valid
