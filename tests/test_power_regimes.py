"""Leakage- vs dynamic-dominated regimes (Section 4.1 / §6.4 remarks).

The paper: "if P_leak is very large and P0 very small, then the problem
becomes completely different, since the objective would be to group many
communications on the same links"; and "a lower value of the ratio
P_leak/P0 would favor PR over other heuristics".  These tests pin the
regime behaviour: link-sharing XY wins when leakage dominates, spreading
heuristics win when dynamic power dominates.
"""

import pytest

from repro import Communication, PowerModel, RoutingProblem
from repro.heuristics import get_heuristic
from repro.workloads import uniform_random_workload


@pytest.fixture
def light_workload(mesh8):
    # light enough that any routing is valid; only the power differs
    return uniform_random_workload(mesh8, 12, 20.0, 80.0, rng=77)


class TestLeakageDominated:
    def test_xy_beats_pr_when_leakage_dominates(self, mesh8, light_workload):
        """Huge P_leak, tiny P0: fewest active links wins, and XY (which
        funnels everything through shared corridors) activates fewer links
        than PR's deliberate spreading."""
        power = PowerModel(
            p_leak=1000.0, p0=1e-6, alpha=3.0, bandwidth=3500.0,
            freq_unit=1000.0,
        )
        prob = RoutingProblem(mesh8, power, light_workload)
        xy = get_heuristic("XY").solve(prob)
        pr = get_heuristic("PR").solve(prob)
        assert xy.valid and pr.valid
        assert xy.report.active_links <= pr.report.active_links
        assert xy.power <= pr.power

    def test_static_fraction_tracks_regime(self, mesh8, light_workload):
        leaky = PowerModel(
            p_leak=1000.0, p0=1e-6, alpha=3.0, bandwidth=3500.0,
            freq_unit=1000.0,
        )
        dyn = PowerModel(
            p_leak=0.0, p0=5.41, alpha=2.95, bandwidth=3500.0,
            freq_unit=1000.0,
        )
        res_leaky = get_heuristic("XY").solve(
            RoutingProblem(mesh8, leaky, light_workload)
        )
        res_dyn = get_heuristic("XY").solve(
            RoutingProblem(mesh8, dyn, light_workload)
        )
        assert res_leaky.report.static_fraction > 0.99
        assert res_dyn.report.static_fraction == 0.0


class TestDynamicDominated:
    def test_spreading_wins_without_leakage(self, mesh8):
        """P_leak = 0 (the Section 4 setting): separating heavy same-pair
        flows strictly beats XY's stacking."""
        power = PowerModel(
            p_leak=0.0, p0=5.41, alpha=2.95, bandwidth=3500.0,
            freq_unit=1000.0,
        )
        comms = [
            Communication((1, 1), (4, 4), 1500.0),
            Communication((1, 1), (4, 4), 1500.0),
        ]
        prob = RoutingProblem(mesh8, power, comms)
        xy = get_heuristic("XY").solve(prob)
        pr = get_heuristic("PR").solve(prob)
        assert xy.valid and pr.valid
        assert pr.power < xy.power

    def test_xyi_never_spreads_at_a_loss(self, mesh8, light_workload):
        """With leakage in the model, XYI only applies moves that lower
        total power — so it can never end up above XY."""
        power = PowerModel.kim_horowitz()
        prob = RoutingProblem(mesh8, power, light_workload)
        xy = get_heuristic("XY").solve(prob)
        xyi = get_heuristic("XYI").solve(prob)
        assert xyi.power <= xy.power + 1e-9
