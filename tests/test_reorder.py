"""Tests for packet collection and the out-of-order delivery analysis."""

from __future__ import annotations

import pytest

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.core.routing import RoutedFlow, Routing
from repro.heuristics import get_heuristic
from repro.mesh.paths import Path
from repro.multipath import AdaptiveSplitRepair
from repro.noc import ArrayFlitSimulator, reorder_stats, worst_reorder_buffer
from repro.noc.reorder import _comm_stats
from repro.noc.simulator import PacketRecord
from repro.utils.validation import InvalidParameterError


def split_routing() -> Routing:
    """One communication split over XY and YX paths (maximal divergence)."""
    mesh = Mesh(4, 4)
    pm = PowerModel.kim_horowitz()
    problem = RoutingProblem(
        mesh, pm, [Communication((0, 0), (3, 3), 2000.0)]
    )
    xy = Path.xy(mesh, (0, 0), (3, 3))
    yx = Path.yx(mesh, (0, 0), (3, 3))
    return Routing(
        problem,
        [[RoutedFlow(path=xy, rate=1000.0), RoutedFlow(path=yx, rate=1000.0)]],
    )


class TestPacketCollection:
    def test_disabled_by_default(self, pm_kh):
        mesh = Mesh(4, 4)
        problem = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (3, 3), 800.0)]
        )
        routing = get_heuristic("XY").solve(problem).routing
        rep = ArrayFlitSimulator(routing).run(2000)
        assert rep.packets == ()
        with pytest.raises(InvalidParameterError):
            reorder_stats(rep)

    def test_records_match_delivered_counts(self, pm_kh):
        mesh = Mesh(4, 4)
        problem = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (3, 3), 800.0)]
        )
        routing = get_heuristic("XY").solve(problem).routing
        rep = ArrayFlitSimulator(routing, collect_packets=True).run(3000)
        assert len(rep.packets) == sum(f.delivered_packets for f in rep.flows)
        for rec in rep.packets:
            assert rec.completed_at >= rec.injected_at
            assert rec.comm == 0


class TestReorderAnalysis:
    def test_single_path_is_in_order(self, pm_kh):
        """Wormhole on one FIFO path can never reorder packets."""
        mesh = Mesh(8, 8)
        problem = RoutingProblem(
            mesh,
            pm_kh,
            [
                Communication((0, 0), (4, 5), 900.0),
                Communication((7, 0), (2, 6), 700.0),
            ],
        )
        routing = get_heuristic("PR").solve(problem).routing
        rep = ArrayFlitSimulator(routing, collect_packets=True).run(4000)
        stats = reorder_stats(rep)
        for st in stats.values():
            assert st.in_order
            assert st.out_of_order_fraction == 0.0
            assert st.max_displacement == 0
        assert worst_reorder_buffer(rep) == 0

    def test_split_flow_reorders(self):
        """Two equal-rate paths of unequal congestion must reorder."""
        routing = split_routing()
        rep = ArrayFlitSimulator(
            routing, injection="bernoulli", seed=3, collect_packets=True
        ).run(6000, warmup=500)
        stats = reorder_stats(rep)
        st = stats[0]
        assert st.paths == 2
        # maximally divergent equal-split: some reordering is essentially
        # certain under stochastic arrivals
        assert st.reorder_buffer_packets >= 1
        assert st.out_of_order_fraction > 0.0

    def test_asr_reorder_isolated_to_split_comms(self, pm_kh):
        mesh = Mesh(8, 8)
        problem = RoutingProblem(
            mesh, pm_kh, [Communication((0, 0), (2, 2), 1800.0)] * 3
        )
        asr = AdaptiveSplitRepair(s=2).solve(problem)
        assert asr.valid
        rep = ArrayFlitSimulator(
            asr.routing, injection="deterministic", collect_packets=True
        ).run(6000, warmup=500)
        stats = reorder_stats(rep)
        for i, flows in enumerate(asr.routing.flows):
            if len(flows) == 1:
                assert stats[i].in_order, i


class TestCommStatsUnit:
    def rec(self, flow, inj, done, comm=0):
        return PacketRecord(
            flow=flow, comm=comm, injected_at=inj, completed_at=done
        )

    def test_in_order_stream(self):
        records = [self.rec(0, t, t + 5) for t in range(10)]
        st = _comm_stats(0, records)
        assert st.in_order
        assert st.out_of_order_fraction == 0.0
        assert st.packets == 10 and st.paths == 1

    def test_single_swap(self):
        """Packets injected 0,1 but completed 1,0: buffer of one packet."""
        records = [self.rec(0, 0, 10), self.rec(1, 1, 8)]
        st = _comm_stats(0, records)
        assert st.reorder_buffer_packets == 1
        assert st.out_of_order_fraction == pytest.approx(0.5)
        assert st.max_displacement == 1
        assert st.paths == 2

    def test_fully_reversed(self):
        n = 6
        records = [self.rec(k % 2, k, 100 - k) for k in range(n)]
        st = _comm_stats(0, records)
        assert st.reorder_buffer_packets == n - 1
        assert st.max_displacement == n - 1

    def test_interleaved_two_streams(self):
        """Even seqs arrive promptly, odd seqs delayed by a slow path."""
        records = []
        for k in range(8):
            delay = 4 if k % 2 else 40
            records.append(self.rec(k % 2, k, k + delay))
        st = _comm_stats(0, records)
        assert st.reorder_buffer_packets >= 2
        assert 0.0 < st.out_of_order_fraction <= 1.0
