"""Warm-start incremental re-routing: match, repair, polish, determinism.

The tentpole contract under test:

* an **unperturbed** resubmission is a no-op — power hex-identical,
  routing identical, zero repair work, polish never entered;
* a warm result is a pure function of ``(problem, prev, polish, seed)``,
  identical across the ``REPRO_NATIVE`` tiers;
* every perturbation class (rate drift, arrivals, departures, link
  failures) is repaired onto a valid routing.
"""

from __future__ import annotations

import math

import pytest

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.core.routing import Routing
from repro.io.jsonio import problem_to_dict, routing_to_dict
from repro.mesh.paths import Path
from repro.scenarios import ChurnSpec, churn_trace
from repro.scenarios.spec import MeshSpec, duplex
from repro.service import handle_request_doc
from repro.service.warmstart import (
    DEFAULT_POLISH,
    POLISH_MODES,
    match_previous,
    repair_state,
    route_incremental,
)
from repro.utils.validation import ReproError
from tests.conftest import make_random_problem


def small_problem(seed: int = 11, n: int = 10) -> RoutingProblem:
    return make_random_problem(
        Mesh(4, 4), PowerModel.kim_horowitz(), n, 100.0, 900.0, seed=seed
    )


def perturbed(problem: RoutingProblem, **kw) -> RoutingProblem:
    """A copy of ``problem`` with simple comm-list edits applied."""
    comms = list(problem.comms)
    for i, rate in kw.get("rates", {}).items():
        c = comms[i]
        comms[i] = Communication(c.src, c.snk, rate)
    for c in kw.get("add", []):
        comms.append(c)
    for i in sorted(kw.get("remove", []), reverse=True):
        del comms[i]
    return RoutingProblem(
        kw.get("mesh", problem.mesh), problem.power, comms
    )


class TestMatchPrevious:
    def test_identity_match(self):
        problem = small_problem()
        prev = route_incremental(problem, polish="none").routing
        match = match_previous(problem, prev)
        assert match.matched == problem.num_comms
        assert match.removed_links == ()
        assert all(m is not None for m in match.moves)

    def test_added_comm_unmatched(self):
        problem = small_problem()
        prev = route_incremental(problem, polish="none").routing
        bigger = perturbed(
            problem, add=[Communication((0, 0), (3, 3), 500.0)]
        )
        match = match_previous(bigger, prev)
        assert match.moves[-1] is None
        assert match.matched == problem.num_comms

    def test_removed_comm_links_reported(self):
        problem = small_problem()
        prev = route_incremental(problem, polish="none").routing
        smaller = perturbed(problem, remove=[0])
        match = match_previous(smaller, prev)
        assert len(match.removed_links) == 1
        assert match.removed_links[0] == tuple(
            int(l) for l in prev.paths(0)[0].link_ids
        )

    def test_duplicate_endpoints_pair_off(self):
        mesh = Mesh(4, 4)
        power = PowerModel.kim_horowitz()
        comms = [
            Communication((0, 0), (2, 2), 100.0),
            Communication((0, 0), (2, 2), 200.0),
        ]
        problem = RoutingProblem(mesh, power, comms)
        prev = route_incremental(problem, polish="none").routing
        match = match_previous(problem, prev)
        assert match.matched == 2
        assert match.prev_rates == (100.0, 200.0)

    def test_mesh_shape_mismatch_rejected(self):
        problem = small_problem()
        prev = route_incremental(problem, polish="none").routing
        other = make_random_problem(
            Mesh(5, 5), problem.power, 10, 100.0, 900.0, seed=11
        )
        with pytest.raises(ReproError, match="matching shapes"):
            match_previous(other, prev)

    def test_multipath_prev_rejected(self):
        from repro.core.routing import RoutedFlow

        problem = small_problem()
        mesh = problem.mesh
        split = Routing(
            problem,
            [
                [
                    RoutedFlow(Path.xy(mesh, c.src, c.snk), c.rate / 2),
                    RoutedFlow(Path.yx(mesh, c.src, c.snk), c.rate / 2),
                ]
                if i == 0
                else [RoutedFlow(Path.xy(mesh, c.src, c.snk), c.rate)]
                for i, c in enumerate(problem.comms)
            ],
        )
        with pytest.raises(ReproError, match="single-path"):
            match_previous(problem, split)


class TestNoOpResubmission:
    """Unperturbed resubmission: hex-identical, polish never entered."""

    @pytest.mark.parametrize("polish", POLISH_MODES)
    def test_noop_is_identical(self, polish):
        problem = small_problem()
        first = route_incremental(problem, polish=polish, seed=3)
        again = route_incremental(
            problem, first.routing, polish=polish, seed=3
        )
        assert again.power.hex() == first.power.hex()
        assert routing_to_dict(again.routing) == routing_to_dict(
            first.routing
        )

    def test_noop_stats_zero(self):
        problem = small_problem()
        first = route_incremental(problem)
        again = route_incremental(problem, first.routing)
        s = again.stats
        assert s.mode == "warm"
        assert s.matched == problem.num_comms
        assert (s.added, s.removed, s.rate_changed, s.dead_repaired) == (
            0, 0, 0, 0,
        )
        assert (s.rerouted, s.polish_flips, s.relocations) == (0, 0, 0)


class TestRepairClasses:
    def test_rate_drift_repaired(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        drifted = perturbed(problem, rates={0: 1234.5, 3: 77.0})
        out = route_incremental(drifted, prev)
        assert out.valid
        assert out.stats.rate_changed == 2
        assert out.stats.rerouted >= 2

    def test_arrival_repaired(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        bigger = perturbed(
            problem, add=[Communication((3, 0), (0, 3), 444.0)]
        )
        out = route_incremental(bigger, prev)
        assert out.valid
        assert out.stats.added == 1
        assert out.routing.problem.num_comms == problem.num_comms + 1

    def test_departure_repaired(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        smaller = perturbed(problem, remove=[2])
        out = route_incremental(smaller, prev)
        assert out.valid
        assert out.stats.removed == 1
        assert out.routing.problem.num_comms == problem.num_comms - 1

    def test_link_failure_evacuated(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        faulty_mesh = MeshSpec(
            4, 4, dead_links=duplex(((1, 1), (1, 2)))
        ).build()
        faulted = perturbed(problem, mesh=faulty_mesh)
        out = route_incremental(faulted, prev)
        assert out.valid  # nothing may cross the dead adjacency
        dead = set(faulty_mesh.dead_link_ids())
        for i in range(faulted.num_comms):
            assert not dead & {
                int(l) for l in out.routing.paths(i)[0].link_ids
            }

    def test_cold_solve_evacuates_dead_links(self):
        """XYI's XY start is not fault-aware; the cold path must fix it."""
        from repro.mesh.paths import CommDag

        faulty_mesh = MeshSpec(
            4, 4, dead_links=duplex(((1, 1), (2, 1)))
        ).build()
        problem = make_random_problem(
            faulty_mesh, PowerModel.kim_horowitz(), 12, 100.0, 900.0, seed=5
        )
        assert all(  # instance sanity: every comm must be routable at all
            CommDag(faulty_mesh, c.src, c.snk).has_live_path()
            for c in problem.comms
        )
        out = route_incremental(problem)
        assert out.valid
        dead = set(faulty_mesh.dead_link_ids())
        for i in range(problem.num_comms):
            assert not dead & {
                int(l) for l in out.routing.paths(i)[0].link_ids
            }


class TestDeterminism:
    def test_warm_result_is_pure(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        drifted = perturbed(problem, rates={1: 999.0})
        a = route_incremental(drifted, prev, seed=7)
        b = route_incremental(drifted, prev, seed=7)
        assert a.power.hex() == b.power.hex()
        assert routing_to_dict(a.routing) == routing_to_dict(b.routing)

    def test_cross_tier_identical(self, monkeypatch):
        from repro.native import native_module

        if native_module() is None:
            pytest.skip("native tier unavailable")
        problem = small_problem()
        results = {}
        for tier in ("0", "1"):
            monkeypatch.setenv("REPRO_NATIVE", tier)
            prev = route_incremental(problem, seed=2).routing
            drifted = perturbed(
                problem,
                rates={0: 555.0},
                add=[Communication((0, 3), (3, 0), 321.0)],
            )
            out = route_incremental(drifted, prev, seed=2)
            results[tier] = (out.power.hex(), routing_to_dict(out.routing))
        assert results["0"] == results["1"]


class TestValidation:
    def test_bad_polish_rejected(self):
        problem = small_problem()
        with pytest.raises(ReproError, match="unknown polish mode"):
            route_incremental(problem, polish="zap")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_bad_seed_rejected(self, seed):
        problem = small_problem()
        with pytest.raises(ReproError, match="seed must be"):
            route_incremental(problem, seed=seed)

    def test_repair_state_validates_too(self):
        problem = small_problem()
        prev = route_incremental(problem).routing
        with pytest.raises(ReproError, match="unknown polish mode"):
            repair_state(problem, prev, polish="zap")
        with pytest.raises(ReproError, match="seed must be"):
            repair_state(problem, prev, seed=-3)

    def test_unknown_solver_rejected(self):
        problem = small_problem()
        with pytest.raises(ReproError):
            route_incremental(problem, solver="NOPE")

    def test_default_polish_is_registered(self):
        assert DEFAULT_POLISH in POLISH_MODES


class TestChurnQuality:
    """E-CHURN's quality gates, without its timing.

    Along the benchmark's churn trace, each step is solved cold and
    warm-started from the previous step's warm answer (the chain a
    resubmitting client replays)."""

    def test_warm_chain_no_worse_than_cold_and_resubmission_hits(
        self, tmp_path
    ):
        steps = churn_trace(
            ChurnSpec(
                scenario="paper-baseline",
                requests=24,
                seed=7,
                fault_prob=0.15,
                rate_scale=0.5,
            )
        )
        chain = route_incremental(steps[0].problem)
        first_prev = chain.routing
        cold_total = warm_total = 0.0
        for step in steps[1:]:
            cold_total += route_incremental(step.problem).power
            chain = route_incremental(step.problem, chain.routing)
            warm_total += chain.power
        assert math.isfinite(cold_total) and math.isfinite(warm_total)
        assert warm_total <= cold_total * (1.0 + 1e-9), (
            warm_total,
            cold_total,
        )

        doc = {
            "problem": problem_to_dict(steps[1].problem),
            "prev": routing_to_dict(first_prev),
        }
        s1, first = handle_request_doc(doc, cache_dir=str(tmp_path))
        s2, again = handle_request_doc(doc, cache_dir=str(tmp_path))
        assert (s1, s2) == (200, 200)
        assert not first["cache_hit"]
        assert again["cache_hit"]
        assert again["routing"] == first["routing"]
