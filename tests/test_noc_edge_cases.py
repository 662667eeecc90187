"""Edge cases of the flit simulator's accounting and scheduling."""

import math

import pytest

from repro import Communication, Mesh, Routing, RoutingProblem
from repro.noc import ArrayFlitSimulator


@pytest.fixture
def one_hop_routing(pm_kh):
    mesh = Mesh(2, 2)
    prob = RoutingProblem(
        mesh, pm_kh, [Communication((0, 0), (0, 1), 700.0)]
    )
    return Routing.xy(prob)


class TestAccounting:
    def test_no_delivery_means_nan_latency(self, one_hop_routing):
        """A run too short for any packet to finish reports NaN latency
        and zero delivered packets, not a crash."""
        sim = ArrayFlitSimulator(one_hop_routing, packet_flits=64)
        rep = sim.run(2)
        (flow,) = rep.flows
        assert flow.delivered_packets == 0
        assert math.isnan(flow.mean_packet_latency)

    def test_warmup_excluded_from_counters(self, one_hop_routing):
        sim = ArrayFlitSimulator(one_hop_routing, packet_flits=4)
        full = sim.run(4000, warmup=0)
        sim2 = ArrayFlitSimulator(one_hop_routing, packet_flits=4)
        warm = sim2.run(4000, warmup=2000)
        assert warm.total_delivered_flits < full.total_delivered_flits

    def test_low_rate_flow_throughput(self, pm_kh):
        """A 100 Mb/s flow on a 3.5 Gb/s fabric must still be served in
        full (slow links quantise up to 1 Gb/s, not down)."""
        mesh = Mesh(4, 4)
        prob = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (3, 3), 100.0)]
        )
        rep = ArrayFlitSimulator(Routing.xy(prob), packet_flits=4).run(
            30000, warmup=3000
        )
        (flow,) = rep.flows
        assert flow.achieved_fraction > 0.95

    def test_utilization_zero_on_unused_links(self, one_hop_routing):
        sim = ArrayFlitSimulator(one_hop_routing, packet_flits=4)
        rep = sim.run(1000)
        mesh = one_hop_routing.problem.mesh
        used = one_hop_routing.link_loads() > 0
        assert rep.link_utilization[~used].max() == 0.0

    def test_two_flows_share_link_fairly(self, pm_kh):
        """Two equal-rate, same-direction flows through one shared link
        must each get about half of what they ask when saturated."""
        mesh = Mesh(2, 3)
        comms = [
            Communication((0, 0), (0, 2), 1700.0),
            Communication((1, 0), (0, 2), 1700.0),
        ]
        prob = RoutingProblem(mesh, pm_kh, comms)
        r = Routing.from_moves(prob, ["HH", "VHH"])
        # shared link (0,1)->(0,2): 3400 <= 3500
        rep = ArrayFlitSimulator(r, packet_flits=4).run(30000, warmup=3000)
        fractions = [f.achieved_fraction for f in rep.flows]
        assert min(fractions) > 0.9
