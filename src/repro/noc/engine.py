"""Structure-of-arrays wormhole engine: the flit engine of :mod:`repro.noc`.

:class:`ArrayFlitSimulator` executes the model of
:mod:`repro.noc.simulator` cycle-exactly as the per-flit reference
simulator does (``tests/noc_reference.py``, the test oracle) — the same
round-robin VC arbitration order, the same budget accrual and idle cap,
the same wormhole ownership and head-of-line blocking, the same deadlock
window — on flat array state instead of per-flit Python objects:

* per-flow hop tables (``(flow, hop) → link id``, via
  :func:`repro.noc.tables.flow_link_table` and the kernel's
  ``direction_link_bases`` arithmetic) replace the reference's
  ``next_hop[(flow, link)]`` dict;
* every ``(link, vc)`` FIFO is a fixed-capacity ring buffer slice of one
  packed flat array per flit lane (flow / packet / flit index /
  injection cycle / next link), with head+count cursors — no deques, no
  ``_Flit`` objects, no tuple-keyed dict lookups;
* injection is batched: the whole arrival schedule is drawn up front by
  :func:`repro.noc.traffic.precompute_arrivals` (vectorised Bernoulli
  blocks, :class:`~repro.utils.rng.StreamReplica`-replayed bursts),
  draw-for-draw identical to the reference's per-cycle scalar draws;
* links advance in grouped passes gated by two exact occupancy counters —
  ``feed[l]`` (flits anywhere whose next hop is ``l``) and ``occ[l]``
  (flits resident in ``l``'s buffers).  ``feed[l] == 0`` proves the
  reference's ``_try_forward`` would return ``None`` and ``occ[l] == 0``
  proves its ejection scan would find nothing, so skipping those links
  changes no observable state; all remaining budget/cap updates are the
  same float operations per link.

The arbitration-order contract this engine (and any future one) must
honour is documented in ``docs/performance.md`` §6: links are serviced in
ascending link-id order *within* a cycle with state visible immediately
(a flit forwarded by link ``a`` can be forwarded again by link ``b > a``
in the same cycle), ejection of the whole fabric completes before any
traversal, VCs are scanned round-robin from the per-link pointer, and
feeder queues are polled in flow-index order.

The reference simulator stays as the oracle:
``tests/probes/noc_probes.json`` pins this engine and the oracle to
reports recorded from the oracle, and ``tests/test_noc_engine.py``
fuzzes the equivalence (meshes, VC counts, buffer depths, injection
models, faulty/derated platforms) report-for-report.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from repro.noc.traffic import injection_factory, precompute_arrivals
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import InvalidParameterError


class ArrayFlitSimulator:
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
        :class:`~repro.noc.simulator.DeadlockError` is raised.
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
    collect_packets:
        Record every delivered packet in ``SimulationReport.packets``
        (needed by :func:`repro.noc.reorder.reorder_stats`).
    flow_table:
        Optional pre-built :class:`~repro.noc.simulator.FlowTable`
        (``build_flow_table``) so a sweep pays the routing flattening
        once; must have been built with the same ``num_vcs``.  When
        given, ``vc_of`` is ignored.

    The module docstring describes the state layout and the equivalence
    argument.
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

        # ---- compact link universe: only links some flow traverses -----
        used = sorted({lid for p in self.flow_paths for lid in p})
        self._used_links = used
        L = len(used)
        self._num_used = L
        g2c = {lid: cl for cl, lid in enumerate(used)}
        # per-flow compact paths, successor tables and hop positions
        self._cpaths: List[List[int]] = [
            [g2c[lid] for lid in p] for p in self.flow_paths
        ]
        self._next_after: List[List[int]] = [
            cp[1:] + [-1] for cp in self._cpaths
        ]
        pos_of = [[-1] * L for _ in self._cpaths]
        for fi, cp in enumerate(self._cpaths):
            row = pos_of[fi]
            for p, cl in enumerate(cp):
                row[cl] = p
        self._pos_of = pos_of
        self._first_cl = [cp[0] for cp in self._cpaths]
        # feeders per (compact link, vc), in flow-index order — the exact
        # candidate order of the reference's _eligible_flit scan
        feeders: List[List[Tuple[int, int]]] = [
            [] for _ in range(L * num_vcs)
        ]
        for fi, cp in enumerate(self._cpaths):
            vc = self.flow_vc[fi]
            feeders[cp[0] * num_vcs + vc].append((fi, -1))
            for up, cl in zip(cp, cp[1:]):
                feeders[cl * num_vcs + vc].append((fi, up))
        self._feeders = [tuple(f) for f in feeders]
        self._speed_used = [float(self.speed[lid]) for lid in used]
        self._cap_used = [max(1.0, s) for s in self._speed_used]
        # observable fast-path tier (REPRO_NATIVE): when the compiled
        # extension is active the whole cycle loop runs in C, bit-identical
        from repro.native import native_kernels

        self._native = native_kernels()
        self._native_tables = None  # static flat tables, built lazily
        self.tier = "python" if self._native is None else "native"

    # ------------------------------------------------------------------
    def run(self, cycles: int, *, warmup: int = 0) -> SimulationReport:
        """Simulate ``cycles`` cycles (statistics ignore the first ``warmup``)."""
        if cycles < 1:
            raise InvalidParameterError(f"cycles must be >= 1, got {cycles}")
        if not 0 <= warmup < cycles:
            raise InvalidParameterError(
                f"warmup must lie in [0, cycles), got {warmup}"
            )
        if self._native is not None:
            from repro.native.engine import run_native

            return run_native(self, cycles, warmup=warmup)
        nf = len(self.flow_paths)
        nvc = self.num_vcs
        bf = self.buffer_flits
        pf = self.packet_flits
        pf_last = pf - 1
        L = self._num_used
        window = self.deadlock_window
        collect = self.collect_packets
        flow_comm = self.flow_comm

        # batched injection: the whole arrival schedule, drawn up front
        # with the reference's exact RNG word-consumption order
        arrivals = precompute_arrivals(
            self.injection, self.flow_rate_frac, pf, self._rng, cycles
        )
        events: List[list] = [[] for _ in range(cycles)]
        for fi in range(nf):
            arr = arrivals[fi]
            for t in np.flatnonzero(arr).tolist():
                events[t].append((fi, int(arr[t])))

        # flat state (see module docstring for the layout)
        nb = L * nvc
        nslots = nb * bf
        bflow = [0] * nslots  # flit lane: owning flow
        bpk = [0] * nslots  # flit lane: packet id (per flow, sequential)
        bk = [0] * nslots  # flit lane: index within packet
        bt = [0] * nslots  # flit lane: injection cycle
        bnext = [0] * nslots  # flit lane: next compact link (-1 = eject)
        hd = [0] * nb
        cnt = [0] * nb
        ow_f = [-1] * nb  # wormhole owner flow (-1 = channel free)
        ow_p = [0] * nb  # wormhole owner packet
        iq_t: List[List[int]] = [[] for _ in range(nf)]  # per-packet t
        iq_head = [0] * nf  # head packet id == its index in iq_t
        iq_k = [0] * nf  # flits of the head packet already departed
        iq_n = [0] * nf  # flits currently queued
        budget = [0.0] * L
        rr = [0] * L
        feed = [0] * L  # flits anywhere whose next hop is this link
        occ = [0] * L  # flits resident in this link's buffers
        in_flight = 0

        injected = [0] * nf
        delivered = [0] * nf
        delivered_pkts = [0] * nf
        latency_sum = [0.0] * nf
        packet_records: List[PacketRecord] = []
        fwd = [0] * L
        total_delivered = 0
        idle_cycles = 0
        deadlocked = False

        next_after = self._next_after
        pos_of = self._pos_of
        first_cl = self._first_cl
        feeders = self._feeders
        speed_l = self._speed_used
        cap_l = self._cap_used

        t = 0
        for t in range(cycles):
            measuring = t >= warmup
            progress = False

            # 1) arrivals (precomputed; same packet cutting and stats)
            ev = events[t]
            if ev:
                for fi, n in ev:
                    tq = iq_t[fi]
                    for _ in range(n):
                        tq.append(t)
                    add = n * pf
                    iq_n[fi] += add
                    feed[first_cl[fi]] += add
                    in_flight += add
                    if measuring:
                        injected[fi] += add

            # 2) ejection: drain head flits whose next hop is -1
            for cl in range(L):
                if not occ[cl]:
                    continue
                b0 = cl * nvc
                for vc in range(nvc):
                    b = b0 + vc
                    c = cnt[b]
                    if not c:
                        continue
                    h = hd[b]
                    sb = b * bf
                    while c and bnext[sb + h] == -1:
                        s = sb + h
                        fi = bflow[s]
                        k = bk[s]
                        h += 1
                        if h == bf:
                            h = 0
                        c -= 1
                        progress = True
                        occ[cl] -= 1
                        in_flight -= 1
                        tail = k == pf_last
                        if tail and ow_f[b] == fi and ow_p[b] == bpk[s]:
                            ow_f[b] = -1
                        if measuring:
                            delivered[fi] += 1
                            total_delivered += 1
                            if tail:
                                delivered_pkts[fi] += 1
                                latency_sum[fi] += t - bt[s]
                                if collect:
                                    packet_records.append(
                                        PacketRecord(
                                            flow=fi,
                                            comm=flow_comm[fi],
                                            injected_at=bt[s],
                                            completed_at=t,
                                        )
                                    )
                    hd[b] = h
                    cnt[b] = c

            # 3) traversal: budget accrual + wormhole RR arbitration
            for cl in range(L):
                bdg = budget[cl] + speed_l[cl]
                if bdg >= 1.0 and feed[cl]:
                    b0 = cl * nvc
                    while True:
                        # -- the reference's _try_forward, inlined --------
                        start = rr[cl]
                        moved = False
                        for off in range(nvc):
                            vc = start + off
                            if vc >= nvc:
                                vc -= nvc
                            b = b0 + vc
                            c_b = cnt[b]
                            if c_b >= bf:
                                continue
                            of = ow_f[b]
                            for fi, up in feeders[b]:
                                if up < 0:
                                    if not iq_n[fi]:
                                        continue
                                    pk = iq_head[fi]
                                    k = iq_k[fi]
                                    us = -1
                                else:
                                    ub = up * nvc + vc
                                    cu = cnt[ub]
                                    if not cu:
                                        continue
                                    us = ub * bf + hd[ub]
                                    if bflow[us] != fi:
                                        continue
                                    pk = bpk[us]
                                    k = bk[us]
                                if of >= 0:
                                    if fi != of or pk != ow_p[b]:
                                        continue
                                elif k != 0:
                                    # only a head flit claims a free channel
                                    continue
                                # ---- move the flit across cl ------------
                                tail = k == pf_last
                                if us < 0:
                                    tstamp = iq_t[fi][pk]
                                    kk = k + 1
                                    if kk == pf:
                                        iq_head[fi] = pk + 1
                                        iq_k[fi] = 0
                                    else:
                                        iq_k[fi] = kk
                                    iq_n[fi] -= 1
                                else:
                                    tstamp = bt[us]
                                    hu = hd[ub] + 1
                                    hd[ub] = 0 if hu == bf else hu
                                    cnt[ub] = cu - 1
                                    occ[up] -= 1
                                    if (
                                        tail
                                        and ow_f[ub] == fi
                                        and ow_p[ub] == pk
                                    ):
                                        ow_f[ub] = -1
                                s = b * bf + hd[b] + c_b
                                if s >= b * bf + bf:
                                    s -= bf
                                bflow[s] = fi
                                bpk[s] = pk
                                bk[s] = k
                                bt[s] = tstamp
                                nx = next_after[fi][pos_of[fi][cl]]
                                bnext[s] = nx
                                cnt[b] = c_b + 1
                                occ[cl] += 1
                                feed[cl] -= 1
                                if nx >= 0:
                                    feed[nx] += 1
                                if tail:
                                    ow_f[b] = -1
                                else:
                                    ow_f[b] = fi
                                    ow_p[b] = pk
                                vcn = vc + 1
                                rr[cl] = 0 if vcn == nvc else vcn
                                moved = True
                                break
                            if moved:
                                break
                        if not moved:
                            break
                        bdg -= 1.0
                        progress = True
                        if measuring:
                            fwd[cl] += 1
                        if bdg < 1.0:
                            break
                # cap idle budget so long-idle links can't burst
                cap = cap_l[cl]
                budget[cl] = cap if bdg > cap else bdg

            if progress or not in_flight:
                idle_cycles = 0
            else:
                idle_cycles += 1
                if idle_cycles >= window:
                    deadlocked = True
                    break

        if deadlocked:
            raise DeadlockError(
                f"no flit moved for {self.deadlock_window} cycles at t={t} "
                "with traffic in flight — wormhole deadlock"
            )
        measured = max(1, t + 1 - warmup)
        forwarded = np.zeros(self.mesh.num_links)
        if L:
            forwarded[self._used_links] = fwd
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
        return SimulationReport(
            cycles=cycles,
            flows=flows,
            link_utilization=util,
            total_delivered_flits=total_delivered,
            deadlocked=False,
            packets=tuple(packet_records),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayFlitSimulator({len(self.flow_paths)} flows, "
            f"{self._num_used} links, {self.num_vcs} VCs)"
        )
