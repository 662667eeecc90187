"""Out-of-order delivery analysis — the multi-path overhead, measured.

The paper restricts its heuristics to single paths because "with the
packets following different paths, reconstructing the message becomes a
time-consuming task and may well involve complicated buffering policies".
This module turns that qualitative concern into numbers: run a (possibly
split) routing through the flit simulator with packet collection on, view
each communication's packets as one stream ordered by injection time, and
measure how far delivery deviates from that order:

* ``out_of_order_fraction`` — packets overtaken by a later-injected
  packet of the same communication;
* ``reorder_buffer_packets`` — the maximum number of packets a receiver
  must hold while waiting for an earlier packet still in flight (the
  "complicated buffering" requirement, in packets);
* ``max_displacement`` — the worst rank shift between injection and
  completion order.

Single-path communications are in-order by construction under wormhole
switching (one FIFO path), so every metric is 0 for them — which the
tests assert — and the interesting numbers isolate exactly the split
communications of s-MP routings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.noc.simulator import PacketRecord, SimulationReport
from repro.utils.validation import InvalidParameterError


@dataclass(frozen=True)
class ReorderStats:
    """Delivery-order metrics of one communication."""

    comm: int
    packets: int
    paths: int  #: flows the communication's packets travelled on
    out_of_order_fraction: float
    reorder_buffer_packets: int
    max_displacement: int

    @property
    def in_order(self) -> bool:
        return self.reorder_buffer_packets == 0


def _comm_stats(comm: int, records: List[PacketRecord]) -> ReorderStats:
    # stream order: injection time, ties broken by completion (a tie means
    # two flows injected the same cycle; either order is defensible)
    order = sorted(records, key=lambda r: (r.injected_at, r.completed_at))
    seq_of = {id(r): k for k, r in enumerate(order)}
    by_completion = sorted(
        records, key=lambda r: (r.completed_at, seq_of[id(r)])
    )

    n = len(records)
    out_of_order = 0
    max_disp = 0
    # receiver simulation: deliver next expected seq, buffer the rest
    expected = 0
    buffered: set[int] = set()
    max_buffer = 0
    for rank, rec in enumerate(by_completion):
        seq = seq_of[id(rec)]
        max_disp = max(max_disp, abs(rank - seq))
        if seq != expected:
            if seq > expected:
                buffered.add(seq)
                out_of_order += 1
                max_buffer = max(max_buffer, len(buffered))
                continue
        expected = seq + 1
        while expected in buffered:
            buffered.remove(expected)
            expected += 1
        max_buffer = max(max_buffer, len(buffered))
    flows = {r.flow for r in records}
    return ReorderStats(
        comm=comm,
        packets=n,
        paths=len(flows),
        out_of_order_fraction=out_of_order / n if n else 0.0,
        reorder_buffer_packets=max_buffer,
        max_displacement=max_disp,
    )


def reorder_stats(report: SimulationReport) -> Dict[int, ReorderStats]:
    """Per-communication delivery-order metrics of a simulation run.

    Requires the run to have been made with ``collect_packets=True``.
    """
    if not report.packets:
        raise InvalidParameterError(
            "no packet records: run "
            "ArrayFlitSimulator(..., collect_packets=True)"
        )
    by_comm: Dict[int, List[PacketRecord]] = {}
    for rec in report.packets:
        by_comm.setdefault(rec.comm, []).append(rec)
    return {c: _comm_stats(c, recs) for c, recs in sorted(by_comm.items())}


def worst_reorder_buffer(report: SimulationReport) -> int:
    """The largest per-communication reorder buffer the run required."""
    stats = reorder_stats(report)
    return max((s.reorder_buffer_packets for s in stats.values()), default=0)
