"""Behavioural tests for PR (path remover) and the BEST meta-heuristic."""

import numpy as np
import pytest

from repro import Communication, RoutingProblem
from repro.heuristics import BestOf, PathRemover, XYRouting
from repro.heuristics.base import get_heuristic
from repro.heuristics.best import best_of_results
from repro.heuristics.path_remover import _CommState
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


class TestCommState:
    def test_initial_spread_sums_to_rate_per_band(self, mesh8):
        from repro.mesh.paths import CommDag

        dag = CommDag(mesh8, (1, 1), (4, 4))
        loads = np.zeros(mesh8.num_links)
        st = _CommState(dag, 600.0, loads)
        for t, band in enumerate(dag.bands()):
            assert loads[band].sum() == pytest.approx(600.0)
        assert st.excess == sum(len(b) for b in dag.bands()) - dag.length

    def test_removal_rebalances_band(self, mesh8):
        from repro.mesh.paths import CommDag

        dag = CommDag(mesh8, (0, 0), (2, 2))
        loads = np.zeros(mesh8.num_links)
        st = _CommState(dag, 600.0, loads)
        band0 = dag.band(0)  # two links from (0,0)
        st.remove_and_clean(band0[0], loads)
        assert loads[band0[0]] == pytest.approx(0.0)
        assert loads[band0[1]] == pytest.approx(600.0)

    def test_removal_cascades_unreachable_edges(self, mesh8):
        """Removing the first vertical edge makes every edge that needs it
        unreachable — the cleaning cascade must drop them too."""
        from repro.mesh.paths import CommDag

        dag = CommDag(mesh8, (0, 0), (2, 2))
        loads = np.zeros(mesh8.num_links)
        st = _CommState(dag, 600.0, loads)
        v00 = dag.edge(0, 0, "V")
        removed = st.remove_and_clean(v00, loads)
        # edges through column-0 below row 0 are now dead: (1,0)V was only
        # reachable through (0,0)V
        assert v00 in removed
        assert dag.edge(1, 0, "V") in removed
        # every band still sums to the rate
        for t, band in enumerate(dag.bands()):
            assert loads[band].sum() == pytest.approx(600.0)

    def test_cannot_remove_last_band_link(self, mesh8):
        from repro.mesh.paths import CommDag

        dag = CommDag(mesh8, (0, 0), (0, 3))  # straight line: all bands singleton
        loads = np.zeros(mesh8.num_links)
        st = _CommState(dag, 100.0, loads)
        assert st.finished
        with pytest.raises(AssertionError):
            st.remove_and_clean(dag.band(0)[0], loads)

    def test_extract_requires_finished(self, mesh8):
        from repro.mesh.paths import CommDag

        dag = CommDag(mesh8, (0, 0), (2, 2))
        st = _CommState(dag, 1.0, np.zeros(mesh8.num_links))
        with pytest.raises(AssertionError):
            st.extract_moves()


class TestPathRemover:
    def test_figure2_power(self, fig2_problem):
        res = PathRemover().solve(fig2_problem)
        assert res.valid
        assert res.power == pytest.approx(56.0)

    def test_final_loads_match_extracted_paths(self, random_problem):
        """PR's internal virtual loads must converge to the real loads of
        the extracted single paths (checked indirectly via the report)."""
        res = PathRemover().solve(random_problem)
        loads = res.routing.link_loads()
        total = sum(
            c.rate * res.routing.paths(i)[0].length
            for i, c in enumerate(random_problem.comms)
        )
        assert loads.sum() == pytest.approx(total)

    def test_separates_heavy_same_pair_comms(self, mesh8, pm_kh):
        """Two 2000 Mb/s same-pair comms cannot share any link; PR must
        find fully link-disjoint paths."""
        comms = [
            Communication((1, 1), (4, 4), 2000.0),
            Communication((1, 1), (4, 4), 2000.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        res = PathRemover().solve(prob)
        assert res.valid
        a = set(map(int, res.routing.paths(0)[0].link_ids))
        b = set(map(int, res.routing.paths(1)[0].link_ids))
        assert not (a & b)

    def test_three_same_pair_at_capacity(self, mesh8, pm_kh):
        """Three 1500 Mb/s same-pair comms: the first band has only two
        links, so one link must carry two comms (3000 <= 3500) — PR finds
        a valid packing at exactly that load."""
        comms = [Communication((1, 1), (4, 4), 1500.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        res = PathRemover().solve(prob)
        assert res.valid
        assert res.report.max_load == pytest.approx(3000.0)

    def test_best_success_rate_under_constraint(self, mesh8, pm_kh):
        """The paper's key claim for PR: it keeps finding solutions where
        others fail.  Over a small Monte-Carlo batch of hard instances PR's
        success count must dominate XY's and be at least TB's."""
        from repro.heuristics import TwoBend

        succ = {"XY": 0, "TB": 0, "PR": 0}
        for seed in range(15):
            prob = make_random_problem(mesh8, pm_kh, 60, 100.0, 1500.0, seed=seed)
            for name, h in (
                ("XY", XYRouting()),
                ("TB", TwoBend()),
                ("PR", PathRemover()),
            ):
                succ[name] += int(h.solve(prob).valid)
        assert succ["PR"] >= succ["TB"] >= succ["XY"]
        assert succ["PR"] > succ["XY"]


class TestBest:
    def test_best_picks_minimum_valid_power(self, random_problem):
        best = BestOf().solve(random_problem)
        members = BestOf().solve_all(random_problem)
        valid_powers = [r.power for r in members if r.valid]
        assert best.valid == bool(valid_powers)
        if valid_powers:
            assert best.power == pytest.approx(min(valid_powers))

    def test_best_of_results_prefers_valid(self, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8,
            pm_kh,
            [
                Communication((0, 0), (2, 2), 2000.0),
                Communication((0, 0), (2, 2), 2000.0),
            ],
        )
        results = [get_heuristic(n).solve(prob) for n in ("XY", "PR")]
        assert not results[0].valid and results[1].valid
        win = best_of_results(results)
        assert win.name == "BEST[PR]"

    def test_best_fails_only_when_all_fail(self, mesh8, pm_kh):
        comms = [Communication((3, 0), (3, 5), 3000.0) for _ in range(2)]
        prob = RoutingProblem(mesh8, pm_kh, comms)  # forced shared row
        best = BestOf().solve(prob)
        assert not best.valid

    def test_custom_member_subset(self, random_problem):
        duo = BestOf(names=("XY", "SG"))
        res = duo.solve(random_problem)
        assert res.routing.is_single_path

    def test_rejects_empty_member_list(self):
        with pytest.raises(InvalidParameterError):
            BestOf(names=())

    def test_best_of_results_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            best_of_results([])

    def test_runtime_accumulates_members(self, random_problem):
        best = BestOf().solve(random_problem)
        assert best.runtime_s > 0
