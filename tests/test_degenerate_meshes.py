"""Degenerate platforms: line meshes, minimal meshes, single links.

The paper's platform is a p × q grid with p, q >= 2 in every figure, but
a robust library must behave on the degenerate cases users will feed it:
1×N and N×1 line chips (every Manhattan path is forced), the minimal 2×2,
and single-hop communications.
"""

from __future__ import annotations

import pytest

from repro import Communication, Mesh, RoutingProblem
from repro.heuristics import available_heuristics, get_heuristic
from repro.mesh.paths import CommDag
from repro.multipath import AdaptiveSplitRepair, SplitTwoBend
from repro.noc import ArrayFlitSimulator
from repro.optimal import optimal_same_endpoint_single_path, optimal_single_path
from repro.utils.validation import InvalidParameterError
from repro.viz import mesh_heatmap_svg


@pytest.fixture
def line_problem(pm_kh) -> RoutingProblem:
    mesh = Mesh(1, 6)
    return RoutingProblem(
        mesh,
        pm_kh,
        [
            Communication((0, 0), (0, 5), 900.0),
            Communication((0, 2), (0, 4), 500.0),
        ],
    )


class TestLineMeshes:
    def test_every_heuristic_routes_a_line(self, line_problem):
        """On a line every Manhattan routing coincides; all agree."""
        powers = set()
        for name in available_heuristics():
            res = get_heuristic(name).solve(line_problem)
            assert res.valid, name
            powers.add(round(res.power, 6))
        assert len(powers) == 1  # the routing is forced

    def test_column_mesh(self, pm_kh):
        mesh = Mesh(5, 1)
        prob = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (4, 0), 700.0)]
        )
        for name in ("XY", "YX", "SG", "PR", "SA"):
            assert get_heuristic(name).solve(prob).valid, name

    def test_multipath_degenerates_gracefully(self, line_problem):
        for cls in (SplitTwoBend, AdaptiveSplitRepair):
            res = cls(s=3).solve(line_problem)
            assert res.valid
            assert res.routing.max_split == 1  # nothing to split over

    def test_exact_solvers_on_a_line(self, pm_kh):
        mesh = Mesh(1, 5)
        prob = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (0, 4), 800.0)] * 2
        )
        bb = optimal_single_path(prob)
        dp = optimal_same_endpoint_single_path(prob)
        assert bb.power == pytest.approx(dp.power)

    def test_simulator_on_a_line(self, line_problem):
        routing = get_heuristic("XY").solve(line_problem).routing
        rep = ArrayFlitSimulator(routing).run(3000, warmup=300)
        for f in rep.flows:
            assert f.achieved_fraction > 0.95

    def test_svg_of_a_line(self, line_problem):
        import xml.dom.minidom as minidom

        svg = mesh_heatmap_svg(
            line_problem.mesh,
            get_heuristic("XY").solve(line_problem).routing.link_loads(),
            line_problem.power,
        )
        minidom.parseString(svg)

    def test_commdag_on_a_line_has_one_path(self):
        mesh = Mesh(1, 7)
        dag = CommDag(mesh, (0, 0), (0, 6))
        assert dag.path_count() == 1
        assert all(len(band) == 1 for band in dag.bands())


class TestMinimalCases:
    def test_single_hop_communication(self, pm_kh):
        mesh = Mesh(2, 2)
        prob = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (0, 1), 3500.0)]
        )
        for name in ("XY", "SG", "TB", "XYI", "PR"):
            res = get_heuristic(name).solve(prob)
            assert res.valid, name
            assert res.routing.paths(0)[0].length == 1

    def test_exactly_at_bandwidth_is_valid(self, pm_kh):
        """The paper's constraint is <=, not <."""
        mesh = Mesh(2, 2)
        prob = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (0, 1), pm_kh.bandwidth)]
        )
        assert get_heuristic("XY").solve(prob).valid

    def test_epsilon_above_bandwidth_is_invalid(self, pm_kh):
        mesh = Mesh(2, 2)
        prob = RoutingProblem(
            mesh,
            pm_kh,
            [Communication((0, 0), (0, 1), pm_kh.bandwidth * 1.0001)],
        )
        assert not get_heuristic("XY").solve(prob).valid

    def test_1x1_mesh_rejected_or_unroutable(self, pm_kh):
        """A 1×1 chip has no links; any communication must be rejected."""
        mesh = Mesh(1, 1)
        assert mesh.num_links == 0
        with pytest.raises(InvalidParameterError):
            Communication((0, 0), (0, 0), 1.0)  # src == snk
