"""Tests for repro.theory: Lemma 1, bounds, Theorem 1/2 constructions,
and the Theorem 3 NP-reduction gadget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PowerModel, RoutingProblem
from repro.heuristics import get_heuristic
from repro.theory import (
    build_reduction,
    diagonal_lower_bound,
    direction_band_volumes,
    lemma2_instance,
    lemma2_powers,
    manhattan_path_count,
    reduction_total_demand_equals_capacity,
    routing_from_partition,
    theorem1_flow_loads,
    theorem1_powers,
)
from repro.theory.bounds import band_capacity_infeasible
from repro.theory.counting import comm_path_count, path_count_by_recursion
from repro.theory.np_reduction import reduction_is_wellformed
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


class TestCounting:
    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 12), q=st.integers(1, 12))
    def test_closed_form_matches_recursion(self, p, q):
        assert manhattan_path_count(p, q) == path_count_by_recursion(p, q)

    def test_comm_path_count(self):
        from repro import Communication

        assert comm_path_count(Communication((0, 0), (2, 3), 1.0)) == 10
        assert comm_path_count(Communication((5, 5), (5, 1), 1.0)) == 1


class TestDiagonalBound:
    def test_band_volumes_sum_rate_times_length(self, random_problem):
        vols = direction_band_volumes(random_problem)
        total = sum(v.sum() for v in vols.values())
        expected = sum(c.rate * c.length for c in random_problem.comms)
        assert total == pytest.approx(expected)

    def test_bound_below_any_heuristic_dynamic_power(self, mesh8):
        """The bound must hold for every routing; compare against the
        continuous-frequency dynamic power of each heuristic's output."""
        pm = PowerModel.continuous_kim_horowitz()
        for seed in range(5):
            prob = make_random_problem(mesh8, pm, 12, 100.0, 1500.0, seed=seed)
            lb = diagonal_lower_bound(prob)
            for name in ("XY", "SG", "PR"):
                res = get_heuristic(name).solve(prob)
                dyn = pm.dynamic_power(
                    np.minimum(res.routing.link_loads(), pm.bandwidth)
                )
                assert lb <= dyn + 1e-9

    def test_band_capacity_check_flags_impossible_instances(self, mesh8, pm_kh):
        from repro import Communication

        # 3 comms x 3000 from one corner pair: band 0 holds 2 links x 3500
        comms = [Communication((0, 0), (3, 3), 3000.0) for _ in range(3)]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        violations = band_capacity_infeasible(prob)
        assert violations  # 9000 > 7000

    def test_band_capacity_check_passes_feasible(self, random_problem):
        assert band_capacity_infeasible(random_problem) == []


class TestTheorem1:
    def test_rejects_odd_or_small_p(self):
        with pytest.raises(InvalidParameterError):
            theorem1_flow_loads(5)
        with pytest.raises(InvalidParameterError):
            theorem1_flow_loads(0)

    def test_flow_conservation_all_of_k_arrives(self):
        """Net outflow of the source corner and inflow of the sink corner
        both equal K; interior cores conserve flow."""
        K = 10.0
        mesh, loads = theorem1_flow_loads(8, K)
        net = {}
        for lid in mesh.links():
            w = loads[lid]
            if w == 0:
                continue
            tail, head = mesh.link_endpoints(lid)
            net[tail] = net.get(tail, 0.0) - w
            net[head] = net.get(head, 0.0) + w
        assert net.pop((0, 0)) == pytest.approx(-K)
        assert net.pop((7, 7)) == pytest.approx(K)
        for core, flux in net.items():
            assert flux == pytest.approx(0.0), core

    def test_constructed_power_bounded_by_paper_constant(self):
        """The paper shows (1/2) P <= 2 K^alpha (1 + (1 - 1/p')); check the
        constructed pattern respects it for several sizes."""
        for p in (4, 8, 16, 32):
            r = theorem1_powers(p, total_rate=1.0, alpha=3.0)
            pprime = p // 2
            assert r["p_manhattan"] <= 2 * 2 * (1 + (1 - 1 / pprime)) + 1e-9

    def test_ratio_grows_linearly(self):
        """Θ(p): doubling p roughly doubles the ratio."""
        r8 = theorem1_powers(8)["ratio"]
        r16 = theorem1_powers(16)["ratio"]
        r32 = theorem1_powers(32)["ratio"]
        assert 1.6 < r16 / r8 < 2.4
        assert 1.6 < r32 / r16 < 2.4

    def test_loads_respect_direction_1_links_only(self):
        """The construction only ever uses E and S links."""
        mesh, loads = theorem1_flow_loads(8)
        from repro.mesh.topology import Orientation

        for lid in mesh.links():
            if loads[lid] > 0:
                assert mesh.link_orientation(lid) in (
                    Orientation.EAST,
                    Orientation.SOUTH,
                )


class TestLemma2:
    def test_instance_shape(self):
        prob = lemma2_instance(6)
        assert prob.num_comms == 5
        for i, c in enumerate(prob.comms, start=1):
            assert c.src == (0, i - 1)
            assert c.snk == (i - 1, 5)

    def test_yx_loads_all_unit(self):
        from repro.core.routing import Routing
        from repro.mesh.moves import yx_moves

        prob = lemma2_instance(6)
        yx = Routing.from_moves(
            prob, [yx_moves(c.src, c.snk) for c in prob.comms]
        )
        loads = yx.link_loads()
        assert set(np.unique(loads)) <= {0.0, 1.0}

    def test_ratio_grows_as_p_to_alpha_minus_1(self):
        """Fit the growth exponent of the XY/YX ratio: ~ alpha - 1 = 2."""
        ps = [8, 16, 32]
        ratios = [lemma2_powers(p, alpha=3.0)["ratio"] for p in ps]
        exponent = math.log(ratios[-1] / ratios[0]) / math.log(ps[-1] / ps[0])
        assert 1.7 < exponent < 2.3

    def test_rejects_tiny_p(self):
        with pytest.raises(InvalidParameterError):
            lemma2_instance(1)


class TestNpReduction:
    def test_gadget_dimensions(self):
        a, s = [3, 3, 2, 2, 1, 1], 2
        prob = build_reduction(a, s)
        n = len(a)
        assert prob.mesh.p == 2
        assert prob.mesh.q == (s - 1) * n + 2
        assert prob.power.bandwidth == sum(a) / 2 + (s - 1) * n
        assert prob.num_comms == n + prob.mesh.q

    def test_saturation_identity(self):
        assert reduction_total_demand_equals_capacity([3, 3, 2, 2, 1, 1], 2)
        assert reduction_total_demand_equals_capacity([5, 4, 3, 2, 1, 1], 3)

    def test_witness_valid_iff_partition(self):
        a, s = [3, 3, 2, 2, 1, 1], 2  # S = 12, halves sum to 6
        good = [{0, 3, 5}, {0, 1}, {2, 3, 4, 5}]
        bad = [{0}, set(), {0, 1, 2}]
        for subset in good:
            assert routing_from_partition(a, s, subset).is_valid(), subset
        for subset in bad:
            assert not routing_from_partition(a, s, subset).is_valid(), subset

    def test_witness_split_counts_respect_s(self):
        a, s = [2, 2, 2, 2], 3
        r = routing_from_partition(a, s, {0, 1})
        assert r.max_split <= s

    def test_wellformedness_condition(self):
        assert reduction_is_wellformed([1, 1, 1, 1], 2)  # S=4 <= 2*1*4
        assert not reduction_is_wellformed([10, 10], 2)  # S=20 > 2*1*2

    def test_illformed_instance_warns(self):
        with pytest.warns(UserWarning, match="not be well-formed|not well-formed"):
            build_reduction([10, 10], 2)

    def test_illformed_instance_raises_when_strict(self):
        with pytest.raises(InvalidParameterError):
            build_reduction([10, 10], 2, strict=True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            build_reduction([], 2)
        with pytest.raises(InvalidParameterError):
            build_reduction([1, -1], 2)
        with pytest.raises(InvalidParameterError):
            build_reduction([1, 1], 1)

    def test_subset_validation(self):
        with pytest.raises(InvalidParameterError):
            routing_from_partition([1, 1], 2, {5})

    def test_blockers_forced_vertical(self):
        a, s = [2, 2], 2
        r = routing_from_partition(a, s, {0})
        # blockers are the last q comms; each must be the one-hop V path
        n = len(a)
        for i in range(n, r.problem.num_comms):
            assert r.paths(i)[0].moves == "V"


class TestTheorem2Bounds:
    """The instance-wise Theorem 2 machinery: XY upper bound + ratio cap."""

    def test_xy_bound_dominates_actual_xy(self, mesh8):
        from hypothesis import given, settings
        from repro.core.routing import Routing
        from repro.theory import theorem2_xy_upper_bound
        from repro.workloads import uniform_random_workload

        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=float("inf"))
        for seed in range(25):
            comms = uniform_random_workload(mesh8, 15, 10.0, 1000.0, rng=seed)
            prob = RoutingProblem(mesh8, pm, comms)
            loads = Routing.xy(prob).link_loads()
            pxy = float(
                pm.p0 * np.sum((loads / pm.freq_unit) ** pm.alpha)
            )
            assert pxy <= theorem2_xy_upper_bound(prob) * (1 + 1e-9)

    def test_ratio_cap_respected_by_best_heuristic(self, mesh8):
        """No Manhattan routing may beat XY by more than the cap."""
        from repro.core.routing import Routing
        from repro.heuristics import BestOf
        from repro.theory import theorem2_ratio_cap
        from repro.workloads import uniform_random_workload

        pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=float("inf"))
        for seed in range(10):
            comms = uniform_random_workload(mesh8, 12, 10.0, 800.0, rng=seed)
            prob = RoutingProblem(mesh8, pm, comms)

            def dyn(loads):
                return float(
                    pm.p0 * np.sum((loads / pm.freq_unit) ** pm.alpha)
                )

            pxy = dyn(Routing.xy(prob).link_loads())
            pbest = dyn(BestOf().solve(prob).routing.link_loads())
            if pbest > 0:
                assert pxy / pbest <= theorem2_ratio_cap(prob) * (1 + 1e-9)

    def test_cap_grows_with_mesh_for_lemma2_family(self):
        """On the Lemma 2 staircase the cap must accommodate the measured
        Θ(p^{α-1}) separation (cap >= realised ratio)."""
        from repro.theory import theorem2_ratio_cap
        from repro.theory.worstcase import lemma2_instance, lemma2_powers

        for p in (4, 8, 12):
            prob = lemma2_instance(p)
            powers = lemma2_powers(p, alpha=3.0)
            realised = powers["ratio"]
            cap = theorem2_ratio_cap(prob)
            assert cap >= realised

    def test_zero_volume_cap_is_inf(self, mesh8, pm_kh):
        from repro.theory import theorem2_ratio_cap
        from repro.core.problem import Communication

        # a single tiny communication still has positive volume
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((0, 0), (1, 1), 1.0)]
        )
        assert np.isfinite(theorem2_ratio_cap(prob))


class TestTheorem1Routing:
    """The Theorem 1 witness as an executable routing."""

    def test_loads_match_the_construction(self):
        from repro.theory import theorem1_flow_loads, theorem1_routing

        for p in (2, 4, 8):
            routing = theorem1_routing(p, 2.0)
            _, loads = theorem1_flow_loads(p, 2.0)
            np.testing.assert_allclose(
                routing.link_loads(), loads, atol=1e-9
            )

    def test_rate_conserved_and_paths_shortest(self):
        from repro.theory import theorem1_routing

        routing = theorem1_routing(6, 5.0)
        flows = routing.flows[0]
        assert sum(f.rate for f in flows) == pytest.approx(5.0)
        for f in flows:
            assert f.path.length == 2 * (6 - 1)

    def test_power_matches_theorem1_powers(self):
        from repro.theory import theorem1_powers, theorem1_routing

        p = 8
        routing = theorem1_routing(p, 1.0)
        loads = routing.link_loads()
        dyn = float(np.sum(loads**3.0))
        powers = theorem1_powers(p)
        assert dyn == pytest.approx(powers["p_manhattan"])

    def test_simulable(self, pm_kh):
        """The witness deploys on the flit simulator like any routing."""
        from repro.noc import ArrayFlitSimulator
        from repro.theory import theorem1_routing

        routing = theorem1_routing(4, 3000.0, power=pm_kh)
        rep = ArrayFlitSimulator(routing).run(4000, warmup=400)
        total_inj = sum(f.injected_flits for f in rep.flows)
        total_del = sum(f.delivered_flits for f in rep.flows)
        assert total_del > 0.9 * total_inj

    def test_odd_p_rejected(self):
        from repro.theory import theorem1_routing
        from repro.utils.validation import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            theorem1_routing(5)
