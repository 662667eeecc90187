"""Tests for the adaptive split-repair multi-path heuristic."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communication, RoutingProblem
from repro.heuristics import get_heuristic
from repro.multipath import AdaptiveSplitRepair
from repro.utils.rng import spawn_rngs
from repro.utils.validation import InvalidParameterError
from repro.workloads import uniform_random_workload


class TestParameters:
    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveSplitRepair(s=0)
        with pytest.raises(InvalidParameterError):
            AdaptiveSplitRepair(max_repairs=0)

    def test_unknown_init_rejected(self, random_problem):
        with pytest.raises(InvalidParameterError):
            AdaptiveSplitRepair(init="NOPE").solve(random_problem)

    def test_empty_problem_rejected(self, mesh44, pm_kh):
        with pytest.raises(InvalidParameterError):
            AdaptiveSplitRepair().solve(RoutingProblem(mesh44, pm_kh, []))


class TestNoRepairNeeded:
    def test_valid_init_is_untouched(self, random_problem):
        """When the starting routing is valid, ASR returns it verbatim."""
        init = get_heuristic("XYI").solve(random_problem)
        assert init.valid
        asr = AdaptiveSplitRepair(s=4).solve(random_problem)
        assert asr.valid
        assert asr.routing.max_split == 1
        assert asr.power == pytest.approx(init.power)


class TestRepair:
    @pytest.fixture
    def congested(self, mesh8, pm_kh) -> RoutingProblem:
        """The pigeonhole: three 2333 Mb/s same-pair flows over a corridor
        with two Manhattan paths.  Any 1-MP routing stacks two flows on
        one path (4666 > 3500), so only splitting can route this."""
        return RoutingProblem(
            mesh8,
            pm_kh,
            [Communication((0, 0), (1, 1), 2333.0) for _ in range(3)],
        )

    def test_repairs_pigeonhole_congestion(self, congested):
        """Provably 1-MP-infeasible; ASR routes it with one split."""
        assert not get_heuristic("XYI").solve(congested).valid
        asr = AdaptiveSplitRepair(s=2).solve(congested)
        assert asr.valid
        split = [
            i
            for i in range(congested.num_comms)
            if asr.routing.num_paths(i) > 1
        ]
        assert split, "a repair must have split something"

    def test_split_budget_respected(self, congested):
        asr = AdaptiveSplitRepair(s=2).solve(congested)
        assert asr.routing.max_split <= 2

    def test_s1_cannot_split(self, congested):
        """With s=1 no repair is possible; the init result is returned."""
        asr = AdaptiveSplitRepair(s=1).solve(congested)
        assert not asr.valid
        assert asr.routing.max_split == 1

    def test_rates_conserved(self, congested):
        asr = AdaptiveSplitRepair(s=3).solve(congested)
        for i, comm in enumerate(congested.comms):
            total = sum(f.rate for f in asr.routing.flows[i])
            assert total == pytest.approx(comm.rate, rel=1e-9)

    def test_monte_carlo_repair_rate(self, mesh8, pm_kh):
        """ASR must strictly beat its init's success rate when constrained."""
        init_succ = asr_succ = 0
        for rng in spawn_rngs(412, 15):
            comms = uniform_random_workload(
                mesh8, 30, 100.0, 2500.0, rng=rng
            )
            prob = RoutingProblem(mesh8, pm_kh, comms)
            init_succ += int(get_heuristic("XYI").solve(prob).valid)
            asr_succ += int(AdaptiveSplitRepair(s=2).solve(prob).valid)
        assert asr_succ > init_succ

    def test_never_worse_than_init_validity(self, mesh8, pm_kh):
        for rng in spawn_rngs(812, 10):
            comms = uniform_random_workload(
                mesh8, 25, 100.0, 2500.0, rng=rng
            )
            prob = RoutingProblem(mesh8, pm_kh, comms)
            init_valid = get_heuristic("XYI").solve(prob).valid
            asr = AdaptiveSplitRepair(s=2).solve(prob)
            if init_valid:
                assert asr.valid

    def test_detour_does_not_create_new_overload(self, mesh8, pm_kh):
        """ASR rejects detours that would overload their own links, so any
        valid result has every link within bandwidth (tautology guarded by
        the evaluator) and an invalid result never has MORE overloaded
        links than its init."""
        comms = [
            Communication((0, 0), (0, 7), 2000.0),
            Communication((0, 0), (0, 7), 2000.0),
            Communication((1, 0), (1, 7), 3400.0),
            Communication((2, 0), (2, 7), 3400.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        init = get_heuristic("XYI").solve(prob)
        asr = AdaptiveSplitRepair(s=2).solve(prob)
        bw = pm_kh.bandwidth
        n_over_init = int(np.sum(init.routing.link_loads() > bw * (1 + 1e-12)))
        n_over_asr = int(np.sum(asr.routing.link_loads() > bw * (1 + 1e-12)))
        assert n_over_asr <= n_over_init

    def test_alternate_init(self, congested):
        asr = AdaptiveSplitRepair(s=2, init="SG").solve(congested)
        assert asr.valid
