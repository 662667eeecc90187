"""The reference wormhole simulator: the oracle of the flit engine.

:class:`FlitSimulator` executes the model documented in
:mod:`repro.noc.simulator` one flit object at a time, with deques and
tuple-keyed dicts: slow, but close enough to the prose to read against
it.  :class:`repro.noc.engine.ArrayFlitSimulator` is the only engine the
package ships, and it is proven cycle-exact against this class:

* ``tests/probes/noc_probes.json`` was recorded from this simulator, and
  ``benchmarks/record_noc_probes.py`` regenerates it from here;
* ``tests/test_noc_engine.py`` checks both against the probes and fuzzes
  the two report for report.

Both consume the shared data model of :mod:`repro.noc.simulator`
(:class:`FlowTable`, :class:`SimulationReport`, :class:`DeadlockError`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.noc.deadlock import VcAssignment, direction_class_vc
from repro.noc.simulator import (
    DeadlockError,
    FlowStats,
    FlowTable,
    PacketRecord,
    SimulationReport,
    build_flow_table,
)
from repro.noc.traffic import injection_factory
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import InvalidParameterError


class _Flit:
    __slots__ = ("flow", "packet", "index", "is_tail", "injected_at")

    def __init__(self, flow: int, packet: int, index: int, is_tail: bool, t: int):
        self.flow = flow
        self.packet = packet
        self.index = index
        self.is_tail = is_tail
        self.injected_at = t


class FlitSimulator:
    """Execute a routing at flit granularity.

    Parameters
    ----------
    routing:
        A valid routing (loads within bandwidth) of any split degree; each
        flow becomes an independent traffic class with its own path.
    num_vcs:
        Virtual channels per link; must cover the range of ``vc_of``.
    vc_of:
        Per-flow VC assignment; defaults to the deadlock-free
        direction-class scheme (needs ``num_vcs >= 4``).
    buffer_flits:
        FIFO depth of each ``(link, vc)`` buffer.
    packet_flits:
        Flits per packet.
    deadlock_window:
        Cycles of global no-progress (with traffic in flight) after which
        :class:`DeadlockError` is raised.
    injection:
        Arrival model per flow: a name from
        :data:`repro.noc.traffic.INJECTION_MODELS` ("deterministic" —
        the default fluid model, "bernoulli", "burst") or a factory
        ``(rate_frac, packet_flits, rng) -> InjectionProcess``.
    rate_scale:
        Multiplier on every flow's injected traffic.  Link speeds stay at
        the frequencies the power model assigns to the *nominal* routing
        loads, so sweeping ``rate_scale`` toward (and past) 1.0 traces the
        load–latency curve of the provisioned network (see
        :mod:`repro.noc.sweep`).
    seed:
        RNG seed for stochastic injection models.
    flow_table:
        Optional pre-built :class:`FlowTable` (``build_flow_table``) so a
        sweep pays the routing flattening once; must have been built with
        the same ``num_vcs``.  When given, ``vc_of`` is ignored.
    """

    def __init__(
        self,
        routing: Routing,
        *,
        num_vcs: int = 4,
        vc_of: VcAssignment = direction_class_vc,
        buffer_flits: int = 4,
        packet_flits: int = 8,
        deadlock_window: int = 1000,
        injection="deterministic",
        rate_scale: float = 1.0,
        seed: RngLike = 0,
        collect_packets: bool = False,
        flow_table: Optional[FlowTable] = None,
    ):
        if num_vcs < 1:
            raise InvalidParameterError(f"num_vcs must be >= 1, got {num_vcs}")
        if buffer_flits < 1:
            raise InvalidParameterError(
                f"buffer_flits must be >= 1, got {buffer_flits}"
            )
        if packet_flits < 1:
            raise InvalidParameterError(
                f"packet_flits must be >= 1, got {packet_flits}"
            )
        if deadlock_window < 1:
            raise InvalidParameterError(
                f"deadlock_window must be >= 1, got {deadlock_window}"
            )
        if not routing.is_valid():
            raise InvalidParameterError(
                "cannot simulate an invalid routing (some link exceeds BW)"
            )
        if rate_scale <= 0:
            raise InvalidParameterError(
                f"rate_scale must be > 0, got {rate_scale}"
            )
        self.injection = injection_factory(injection)
        self.rate_scale = rate_scale
        self._rng = ensure_rng(seed)
        self.collect_packets = collect_packets
        self.routing = routing
        problem = routing.problem
        self.mesh = problem.mesh
        power = problem.power
        loads = routing.link_loads()
        freqs = power.quantize(loads)
        self.speed = np.where(freqs > 0, freqs / power.bandwidth, 0.0)
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self.packet_flits = packet_flits
        self.deadlock_window = deadlock_window

        # flatten flows (memoised direction/VC lookups; reusable per sweep)
        if flow_table is None:
            flow_table = build_flow_table(routing, num_vcs=num_vcs, vc_of=vc_of)
        elif flow_table.num_vcs != num_vcs:
            raise InvalidParameterError(
                f"flow table was built for {flow_table.num_vcs} VCs, "
                f"simulator runs {num_vcs}"
            )
        self.flow_table = flow_table
        self.flow_paths: List[List[int]] = [list(p) for p in flow_table.paths]
        self.flow_comm: List[int] = list(flow_table.comm)
        self.flow_vc: List[int] = list(flow_table.vc)
        self.flow_rate_frac: List[float] = [
            rate * rate_scale / power.bandwidth for rate in flow_table.rates
        ]

        # per link: the (flow, upstream link) pairs that may feed it
        # (upstream None = the flow's injection queue)
        self._feeders: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for fi, path in enumerate(self.flow_paths):
            self._feeders.setdefault(path[0], []).append((fi, None))
            for a, b in zip(path, path[1:]):
                self._feeders.setdefault(b, []).append((fi, a))

    # ------------------------------------------------------------------
    def run(self, cycles: int, *, warmup: int = 0) -> SimulationReport:
        """Simulate ``cycles`` cycles (statistics ignore the first ``warmup``)."""
        if cycles < 1:
            raise InvalidParameterError(f"cycles must be >= 1, got {cycles}")
        if not 0 <= warmup < cycles:
            raise InvalidParameterError(
                f"warmup must lie in [0, cycles), got {warmup}"
            )
        nf = len(self.flow_paths)
        n_links = self.mesh.num_links
        nvc = self.num_vcs

        buffers: Dict[Tuple[int, int], Deque[_Flit]] = {}
        owner: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        inject_q: List[Deque[_Flit]] = [deque() for _ in range(nf)]
        injectors = [
            self.injection(
                self.flow_rate_frac[fi],
                self.packet_flits,
                np.random.default_rng(self._rng.integers(2**63)),
            )
            for fi in range(nf)
        ]
        packet_counter = [0] * nf
        budget = np.zeros(n_links)
        rr_next_vc = [0] * n_links

        injected = [0] * nf
        delivered = [0] * nf
        delivered_pkts = [0] * nf
        latency_sum = [0.0] * nf
        packet_records: List[PacketRecord] = []
        forwarded = np.zeros(n_links)
        total_delivered = 0
        idle_cycles = 0
        deadlocked = False

        used_links = sorted({l for p in self.flow_paths for l in p})
        next_hop: Dict[Tuple[int, int], Optional[int]] = {}
        first_flows: Dict[int, List[int]] = {}
        for fi, path in enumerate(self.flow_paths):
            first_flows.setdefault(path[0], []).append(fi)
            for a, b in zip(path, path[1:]):
                next_hop[(fi, a)] = b
            next_hop[(fi, path[-1])] = None

        for t in range(cycles):
            measuring = t >= warmup
            progress = False

            # 1) arrivals: the per-flow injection process cuts packets
            for fi in range(nf):
                for _ in range(injectors[fi].packets()):
                    pk = packet_counter[fi]
                    packet_counter[fi] += 1
                    for k in range(self.packet_flits):
                        inject_q[fi].append(
                            _Flit(fi, pk, k, k == self.packet_flits - 1, t)
                        )
                    if measuring:
                        injected[fi] += self.packet_flits

            # 2) ejection: drain flits whose next hop is None
            for lid in used_links:
                for vc in range(nvc):
                    buf = buffers.get((lid, vc))
                    if not buf:
                        continue
                    while buf and next_hop[(buf[0].flow, lid)] is None:
                        flit = buf.popleft()
                        progress = True
                        if owner.get((lid, vc)) == (flit.flow, flit.packet) and flit.is_tail:
                            owner[(lid, vc)] = None
                        if measuring:
                            delivered[flit.flow] += 1
                            total_delivered += 1
                            if flit.is_tail:
                                delivered_pkts[flit.flow] += 1
                                latency_sum[flit.flow] += t - flit.injected_at
                                if self.collect_packets:
                                    packet_records.append(
                                        PacketRecord(
                                            flow=flit.flow,
                                            comm=self.flow_comm[flit.flow],
                                            injected_at=flit.injected_at,
                                            completed_at=t,
                                        )
                                    )

            # 3) link traversal with wormhole ownership + RR over VCs
            for lid in used_links:
                budget[lid] += self.speed[lid]
                while budget[lid] >= 1.0:
                    moved = self._try_forward(
                        lid, rr_next_vc, buffers, owner, inject_q, first_flows,
                        next_hop,
                    )
                    if moved is None:
                        break
                    budget[lid] -= 1.0
                    progress = True
                    if measuring:
                        forwarded[lid] += 1
                # cap idle budget so long-idle links can't burst unrealistically
                budget[lid] = min(budget[lid], max(1.0, self.speed[lid]))

            in_flight = any(inject_q[fi] for fi in range(nf)) or any(
                buffers.get((l, v)) for l in used_links for v in range(nvc)
            )
            if progress or not in_flight:
                idle_cycles = 0
            else:
                idle_cycles += 1
                if idle_cycles >= self.deadlock_window:
                    deadlocked = True
                    break

        measured = max(1, (t + 1 if not deadlocked else t) - warmup)
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                self.speed > 0, forwarded / (measured * self.speed), 0.0
            )
        flows = tuple(
            FlowStats(
                comm_index=self.flow_comm[fi],
                rate_fraction=self.flow_rate_frac[fi],
                injected_flits=injected[fi],
                delivered_flits=delivered[fi],
                delivered_packets=delivered_pkts[fi],
                mean_packet_latency=(
                    latency_sum[fi] / delivered_pkts[fi]
                    if delivered_pkts[fi]
                    else float("nan")
                ),
            )
            for fi in range(nf)
        )
        if deadlocked:
            raise DeadlockError(
                f"no flit moved for {self.deadlock_window} cycles at t={t} "
                "with traffic in flight — wormhole deadlock"
            )
        return SimulationReport(
            cycles=cycles,
            flows=flows,
            link_utilization=util,
            total_delivered_flits=total_delivered,
            deadlocked=False,
            packets=tuple(packet_records),
        )

    # ------------------------------------------------------------------
    def _try_forward(
        self,
        lid: int,
        rr_next_vc: List[int],
        buffers: Dict[Tuple[int, int], Deque[_Flit]],
        owner: Dict[Tuple[int, int], Optional[Tuple[int, int]]],
        inject_q: List[Deque[_Flit]],
        first_flows: Dict[int, List[int]],
        next_hop: Dict[Tuple[int, int], Optional[int]],
    ) -> Optional[int]:
        """Move one flit across ``lid`` if some VC has an eligible head flit.

        Returns the winning VC, or ``None``.  Eligibility: the flit sits at
        the head of its upstream queue (the injection queue for the flow's
        first link, the previous link's buffer otherwise), the downstream
        ``(lid, vc)`` buffer has space, and wormhole ownership permits it.
        """
        nvc = self.num_vcs
        start = rr_next_vc[lid]
        for off in range(nvc):
            vc = (start + off) % nvc
            buf = buffers.setdefault((lid, vc), deque())
            if len(buf) >= self.buffer_flits:
                continue
            own = owner.get((lid, vc))
            flit = self._eligible_flit(lid, vc, own, buffers, inject_q, first_flows)
            if flit is None:
                continue
            # dequeue from upstream
            src_q = self._upstream_queue(flit.flow, lid, buffers, inject_q)
            assert src_q[0] is flit
            src_q.popleft()
            # release upstream ownership when the tail leaves
            up = self._upstream_link(flit.flow, lid)
            if up is not None and flit.is_tail:
                if owner.get((up, vc)) == (flit.flow, flit.packet):
                    owner[(up, vc)] = None
            buf.append(flit)
            owner[(lid, vc)] = None if flit.is_tail else (flit.flow, flit.packet)
            rr_next_vc[lid] = (vc + 1) % nvc
            return vc
        return None

    def _upstream_link(self, flow: int, lid: int) -> Optional[int]:
        path = self.flow_paths[flow]
        k = path.index(lid)
        return path[k - 1] if k > 0 else None

    def _upstream_queue(
        self,
        flow: int,
        lid: int,
        buffers: Dict[Tuple[int, int], Deque[_Flit]],
        inject_q: List[Deque[_Flit]],
    ) -> Deque[_Flit]:
        up = self._upstream_link(flow, lid)
        if up is None:
            return inject_q[flow]
        return buffers[(up, self.flow_vc[flow])]

    def _eligible_flit(
        self,
        lid: int,
        vc: int,
        own: Optional[Tuple[int, int]],
        buffers: Dict[Tuple[int, int], Deque[_Flit]],
        inject_q: List[Deque[_Flit]],
        first_flows: Dict[int, List[int]],
    ) -> Optional[_Flit]:
        """Head flit allowed to cross ``(lid, vc)`` now, if any."""
        candidates: List[Deque[_Flit]] = []
        for fi, up in self._feeders.get(lid, []):
            if self.flow_vc[fi] != vc:
                continue
            if up is None:
                if inject_q[fi]:
                    candidates.append(inject_q[fi])
            else:
                buf = buffers.get((up, vc))
                if buf and buf[0].flow == fi:
                    candidates.append(buf)
        for q in candidates:
            flit = q[0]
            if own is not None:
                if (flit.flow, flit.packet) == own:
                    return flit
                continue
            if flit.index == 0:  # only a head flit may claim a free channel
                return flit
        return None
