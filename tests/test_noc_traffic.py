"""Tests for arrival processes, latency sweeps and router power."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communication, Mesh, RoutingProblem
from repro.core.routing import Routing
from repro.heuristics import get_heuristic
from repro.noc import (
    ArrayFlitSimulator,
    BernoulliInjection,
    BurstInjection,
    DeterministicInjection,
    LatencyPoint,
    RouterPowerModel,
    active_routers,
    latency_sweep,
    network_power,
    router_traffic,
    saturation_fraction,
)
from repro.noc.traffic import injection_factory
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


def small_routing(pm) -> Routing:
    mesh = Mesh(4, 4)
    problem = RoutingProblem(
        mesh,
        pm,
        [
            Communication((0, 0), (3, 3), 800.0),
            Communication((3, 0), (0, 3), 600.0),
            Communication((0, 3), (3, 0), 400.0),
        ],
    )
    return get_heuristic("PR").solve(problem).routing


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestInjectionProcesses:
    def test_deterministic_mean_rate(self):
        proc = DeterministicInjection(0.25, 8)
        packets = sum(proc.packets() for _ in range(8000))
        # 0.25 flits/cycle over 8-flit packets = 1 packet / 32 cycles
        assert packets == 8000 // 32

    def test_bernoulli_mean_rate(self):
        rng = np.random.default_rng(0)
        proc = BernoulliInjection(0.25, 8, rng)
        n = 40000
        packets = sum(proc.packets() for _ in range(n))
        expected = n * 0.25 / 8
        assert abs(packets - expected) < 4 * np.sqrt(expected)

    def test_burst_mean_rate(self):
        rng = np.random.default_rng(1)
        proc = BurstInjection(0.25, 8, rng, duty=0.3, burst_length=6.0)
        n = 200000
        packets = sum(proc.packets() for _ in range(n))
        expected = n * 0.25 / 8
        assert abs(packets - expected) / expected < 0.1

    def test_burst_is_burstier_than_bernoulli(self):
        """Index of dispersion of per-window counts must be higher."""

        def dispersion(proc, n=60000, window=64):
            counts = []
            acc = 0
            for t in range(n):
                acc += proc.packets()
                if (t + 1) % window == 0:
                    counts.append(acc)
                    acc = 0
            counts = np.asarray(counts, dtype=float)
            return counts.var() / max(counts.mean(), 1e-12)

        rng = np.random.default_rng(2)
        d_bern = dispersion(BernoulliInjection(0.25, 8, rng))
        d_burst = dispersion(
            BurstInjection(0.25, 8, rng, duty=0.2, burst_length=8.0)
        )
        assert d_burst > 1.5 * d_bern

    def test_zero_rate_flows_inject_nothing(self):
        rng = np.random.default_rng(3)
        for proc in (
            DeterministicInjection(0.0, 8),
            BernoulliInjection(0.0, 8, rng),
            BurstInjection(0.0, 8, rng),
        ):
            assert sum(proc.packets() for _ in range(100)) == 0

    def test_parameter_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidParameterError):
            DeterministicInjection(-0.1, 8)
        with pytest.raises(InvalidParameterError):
            BernoulliInjection(9.0, 8, rng)  # p > 1
        with pytest.raises(InvalidParameterError):
            BurstInjection(0.2, 8, rng, duty=0.0)
        with pytest.raises(InvalidParameterError):
            BurstInjection(0.2, 8, rng, burst_length=0.0)

    def test_factory_resolution(self):
        assert injection_factory("deterministic") is DeterministicInjection
        assert injection_factory(BernoulliInjection) is BernoulliInjection
        with pytest.raises(InvalidParameterError):
            injection_factory("poisson")


# ----------------------------------------------------------------------
# simulator integration
# ----------------------------------------------------------------------
class TestStochasticSimulation:
    def test_bernoulli_throughput_below_saturation(self, pm_kh):
        routing = small_routing(pm_kh)
        sim = ArrayFlitSimulator(routing, injection="bernoulli", seed=5)
        report = sim.run(6000, warmup=1000)
        for flow in report.flows:
            if flow.injected_flits:
                assert flow.achieved_fraction > 0.9

    def test_rate_scale_scales_injection(self, pm_kh):
        routing = small_routing(pm_kh)
        lo = ArrayFlitSimulator(routing, rate_scale=0.25, seed=6).run(4000)
        hi = ArrayFlitSimulator(routing, rate_scale=0.75, seed=6).run(4000)
        lo_inj = sum(f.injected_flits for f in lo.flows)
        hi_inj = sum(f.injected_flits for f in hi.flows)
        assert hi_inj > 2 * lo_inj

    def test_rate_scale_validation(self, pm_kh):
        routing = small_routing(pm_kh)
        with pytest.raises(InvalidParameterError):
            ArrayFlitSimulator(routing, rate_scale=0.0)

    def test_deterministic_seeded_runs_identical(self, pm_kh):
        routing = small_routing(pm_kh)
        kw = dict(injection="bernoulli", seed=7)
        a = ArrayFlitSimulator(routing, **kw).run(2000)
        b = ArrayFlitSimulator(routing, **kw).run(2000)
        assert a.total_delivered_flits == b.total_delivered_flits


# ----------------------------------------------------------------------
# latency sweep
# ----------------------------------------------------------------------
class TestLatencySweep:
    def test_latency_grows_with_load(self, pm_kh):
        routing = small_routing(pm_kh)
        pts = latency_sweep(
            routing, [0.2, 0.6, 1.0], cycles=3000, warmup=600, seed=8
        )
        assert len(pts) == 3
        assert pts[0].mean_latency <= pts[-1].mean_latency * (1 + 1e-9)
        assert all(p.stable for p in pts[:1])

    def test_overload_is_unstable(self, pm_kh):
        routing = small_routing(pm_kh)
        pts = latency_sweep(
            routing, [0.3, 3.5], cycles=3000, warmup=600, seed=9
        )
        assert pts[0].stable
        # 3.5x the provisioned load cannot be delivered
        assert pts[-1].delivered_ratio < 0.9

    def test_saturation_fraction(self, pm_kh):
        routing = small_routing(pm_kh)
        pts = latency_sweep(
            routing, [0.3, 0.6, 3.0], cycles=3000, warmup=600, seed=10
        )
        sat = saturation_fraction(pts)
        assert sat <= 3.0

    def test_saturation_of_flat_curve_is_inf(self):
        pts = [
            LatencyPoint(
                fraction=f,
                injected_flits=100,
                delivered_flits=100,
                mean_latency=10.0,
                max_link_utilization=0.2,
                deadlocked=False,
            )
            for f in (0.1, 0.2)
        ]
        assert saturation_fraction(pts) == float("inf")

    def test_parameter_validation(self, pm_kh):
        routing = small_routing(pm_kh)
        with pytest.raises(InvalidParameterError):
            latency_sweep(routing, [])
        with pytest.raises(InvalidParameterError):
            latency_sweep(routing, [0.0])
        with pytest.raises(InvalidParameterError):
            saturation_fraction([])


# ----------------------------------------------------------------------
# router power
# ----------------------------------------------------------------------
class TestRouterPower:
    def test_hop_invariance_across_manhattan_routings(self, pm_kh):
        """Same comms, different Manhattan routings: equal router dynamic."""
        problem = make_random_problem(
            Mesh(8, 8), pm_kh, 12, 100.0, 900.0, seed=77
        )
        model = RouterPowerModel()
        reports = [
            network_power(get_heuristic(n).solve(problem).routing, model)
            for n in ("XY", "SG", "TB", "PR")
        ]
        base = reports[0].router_dynamic
        for rep in reports[1:]:
            assert rep.router_dynamic == pytest.approx(base, rel=1e-9)

    def test_split_routing_keeps_router_dynamic(self, fig2_problem):
        """Splitting a comm across paths does not change hop energy."""
        model = RouterPowerModel()
        xy = network_power(Routing.xy(fig2_problem), model)
        from repro.multipath import SplitTwoBend

        smp = SplitTwoBend(s=2).solve(fig2_problem)
        split = network_power(smp.routing, model)
        assert split.router_dynamic == pytest.approx(
            xy.router_dynamic, rel=1e-9
        )

    def test_xy_activates_fewer_routers(self, pm_kh):
        problem = make_random_problem(
            Mesh(8, 8), pm_kh, 10, 100.0, 600.0, seed=31
        )
        xy = get_heuristic("XY").solve(problem).routing
        pr = get_heuristic("PR").solve(problem).routing
        assert len(active_routers(xy)) <= len(active_routers(pr))

    def test_router_traffic_conservation(self, pm_kh):
        routing = small_routing(pm_kh)
        traffic = router_traffic(routing)
        total = sum(traffic.values())
        expected = sum(
            f.rate * (f.path.length + 1)
            for flows in routing.flows
            for f in flows
        )
        assert total == pytest.approx(expected)

    def test_total_includes_all_terms(self, pm_kh):
        routing = small_routing(pm_kh)
        model = RouterPowerModel(p_router_leak=5.0)
        rep = network_power(routing, model)
        assert rep.total == pytest.approx(
            rep.link_power + rep.router_dynamic + rep.router_static
        )
        assert rep.router_static == pytest.approx(
            5.0 * rep.num_active_routers
        )

    def test_with_leak(self):
        model = RouterPowerModel().with_leak(123.0)
        assert model.p_router_leak == 123.0
        assert model.e_hop == pytest.approx(
            model.e_buffer_write
            + model.e_buffer_read
            + model.e_crossbar
            + model.e_arbiter
        )

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InvalidParameterError):
            RouterPowerModel(e_crossbar=-1.0)
        with pytest.raises(InvalidParameterError):
            RouterPowerModel(p_router_leak=-1.0)
