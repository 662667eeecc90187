"""Cycle-based wormhole NoC simulator driven by a computed routing.

The simulator deploys a :class:`~repro.core.routing.Routing` the way the
paper envisions ("a table-driven scheduling algorithm"): every flow follows
its fixed path, links run at the discrete frequency the power model
assigns to their load, and packets are wormhole-switched through per-link,
per-virtual-channel FIFO buffers.

Model (one *cycle* = one flit time of a full-speed link):

* link ℓ accrues ``speed_ℓ = f_ℓ / BW`` flits of budget per cycle and
  forwards a flit whenever its budget reaches 1;
* each ``(link, vc)`` has a downstream FIFO of ``buffer_flits`` flits; only
  the FIFO head may advance (head-of-line blocking);
* wormhole ownership: once a packet's head flit wins a ``(link, vc)``, the
  channel is dedicated to that packet until its tail passes;
* arbitration is round-robin over VCs per link;
* sinks eject at unbounded rate; sources inject ``rate / BW`` flits per
  cycle into unbounded injection queues, cut into ``packet_flits``-sized
  packets.

With a single VC, routings whose channel dependency graph is cyclic can
and do deadlock — the simulator detects global no-progress and raises
:class:`DeadlockError`.  With the direction-class VC assignment (see
:mod:`repro.noc.deadlock`) every Manhattan routing is deadlock-free.

This module holds the model's data types: the flattened
:class:`FlowTable`, the :class:`SimulationReport` a run returns, and
:class:`DeadlockError`.  The engine that executes the model is
:class:`repro.noc.engine.ArrayFlitSimulator`; the per-flit reference it
is proven cycle-exact against is the test oracle in
``tests/noc_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.noc.deadlock import VcAssignment, comm_vcs, direction_class_vc
from repro.noc.tables import flow_link_table
from repro.utils.validation import InvalidParameterError, ReproError


class DeadlockError(ReproError):
    """The network made no progress for the configured window."""


@dataclass(frozen=True)
class FlowTable:
    """Flattened per-flow deployment metadata, shared by every simulator.

    Flattening a routing — communications in problem order, each
    communication's flows in routing order — yields one traffic class per
    flow: its hop table (link ids via the flat kernel arithmetic of
    :func:`repro.noc.tables.flow_link_table`), its owning communication,
    its virtual channel and its *raw* rate in Mb/s.  Rate scaling and the
    bandwidth division happen in the simulators (``rate * rate_scale /
    BW``, in exactly that order) so a shared table cannot perturb the
    float math of any sweep point.

    Build once with :func:`build_flow_table` and pass the same table to
    every simulator of a sweep — the flattening (direction lookups, VC
    assignment, hop-table arithmetic) is then paid once per routing
    instead of once per sweep point.
    """

    num_vcs: int
    paths: Tuple[Tuple[int, ...], ...]  #: link ids per hop, per flow
    comm: Tuple[int, ...]  #: owning communication index per flow
    vc: Tuple[int, ...]  #: virtual channel per flow
    rates: Tuple[float, ...]  #: raw flow rates (Mb/s), unscaled


def build_flow_table(
    routing: Routing,
    *,
    num_vcs: int = 4,
    vc_of: VcAssignment = direction_class_vc,
) -> FlowTable:
    """Flatten ``routing`` into a :class:`FlowTable`.

    ``direction_of`` lookups are memoised per endpoint pair and the VC
    assignment is evaluated once per communication
    (:func:`repro.noc.deadlock.comm_vcs`).
    """
    paths = flow_link_table(routing)
    comm: List[int] = []
    vcs: List[int] = []
    rates: List[float] = []
    per_comm_vc = comm_vcs(routing, vc_of)
    for i, flows in enumerate(routing.flows):
        vc = per_comm_vc[i]
        if not 0 <= vc < num_vcs:
            raise InvalidParameterError(
                f"vc assignment returned {vc}, outside [0, {num_vcs})"
            )
        for f in flows:
            comm.append(i)
            vcs.append(vc)
            rates.append(f.rate)
    return FlowTable(
        num_vcs=num_vcs,
        paths=tuple(paths),
        comm=tuple(comm),
        vc=tuple(vcs),
        rates=tuple(rates),
    )


@dataclass(frozen=True)
class FlowStats:
    """Per-flow outcome of a simulation run."""

    comm_index: int
    rate_fraction: float  #: demanded injection rate in flits/cycle
    injected_flits: int
    delivered_flits: int
    delivered_packets: int
    mean_packet_latency: float  #: cycles, tail-in to tail-out; NaN if none

    @property
    def achieved_fraction(self) -> float:
        """Delivered/demanded throughput ratio (measured over the run).

        Zero-injection convention: a flow that injected nothing during the
        measured window demanded nothing, so its ratio is **1.0**
        (vacuously achieved) — the same convention as
        :attr:`repro.noc.sweep.LatencyPoint.delivered_ratio`, so idle flows
        never drag aggregate minima to zero.
        """
        if self.injected_flits == 0:
            return 1.0
        return self.delivered_flits / self.injected_flits


@dataclass(frozen=True)
class PacketRecord:
    """One delivered packet (collected when ``collect_packets=True``)."""

    flow: int  #: simulator flow index (one comm may own several flows)
    comm: int  #: communication index in the problem
    injected_at: int  #: cycle the packet entered its injection queue
    completed_at: int  #: cycle its tail flit ejected at the sink


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate outcome of a simulation run."""

    cycles: int
    flows: Tuple[FlowStats, ...]
    link_utilization: np.ndarray  #: flits forwarded / (cycles * speed)
    total_delivered_flits: int
    deadlocked: bool
    packets: Tuple[PacketRecord, ...] = ()  #: empty unless collected
