"""Load–latency sweeps of a provisioned routing.

The classic NoC evaluation: fix a routing (and therefore the DVFS
frequency of every link, provisioned for the nominal loads), then sweep
the *offered* traffic from a trickle past the nominal point and record
packet latency and delivered throughput.  A good routing keeps latency
flat until offered load approaches what its links were provisioned for;
saturation shows as latency blow-up and a delivered/offered ratio
falling below 1.

This quantifies a deployment property the paper's system-level model
abstracts away: two routings with equal (or similar) *power* can behave
differently under bursty arrivals because their queueing headroom
differs.  The ``noc_latency`` campaign experiment uses it to compare XY
and PR routings of the same instance.

Execution
---------

Each point runs on the array flit engine
(:class:`~repro.noc.engine.ArrayFlitSimulator`).  ``jobs > 1`` fans the
points of one sweep out to one process pool from
:func:`~repro.utils.pool.worker_pool`, one task per offered-load
fraction and at most one worker per fraction; every point's simulator
is seeded identically either way, so serial and parallel sweeps are
bit-identical point for point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.routing import Routing
from repro.noc.engine import ArrayFlitSimulator
from repro.noc.simulator import (
    DeadlockError,
    FlowTable,
    SimulationReport,
    build_flow_table,
)
from repro.utils.pool import worker_pool
from repro.utils.rng import RngLike
from repro.utils.validation import InvalidParameterError

#: latency reported for a point that deadlocked or delivered nothing
UNSTABLE = float("inf")


@dataclass(frozen=True)
class LatencyPoint:
    """One point of a load–latency curve."""

    fraction: float  #: offered load as a multiple of the nominal rates
    injected_flits: int
    delivered_flits: int
    mean_latency: float  #: packet-weighted mean latency (cycles); inf if none
    max_link_utilization: float
    deadlocked: bool

    @property
    def delivered_ratio(self) -> float:
        """Delivered/injected over the measured window (≈1 below saturation).

        Zero-injection convention: a point whose measured window saw no
        injected traffic delivered everything it was offered, so the ratio
        is **1.0** (vacuously) — the same convention as
        :attr:`repro.noc.simulator.FlowStats.achieved_fraction`.
        """
        if self.injected_flits == 0:
            return 1.0
        return self.delivered_flits / self.injected_flits

    @property
    def stable(self) -> bool:
        """Heuristic stability flag: most injected traffic got through."""
        return not self.deadlocked and self.delivered_ratio >= 0.9

    def to_jsonable(self) -> dict:
        """Exact (hex-float) snapshot of this point — the single schema
        used by every saved latency curve (CLI ``--json``, scenario
        results)."""
        return {
            "fraction": self.fraction.hex(),
            "injected_flits": self.injected_flits,
            "delivered_flits": self.delivered_flits,
            "mean_latency": self.mean_latency.hex(),
            "max_link_utilization": self.max_link_utilization.hex(),
            "deadlocked": self.deadlocked,
        }


def points_table(points: Sequence["LatencyPoint"]) -> str:
    """Human-readable latency-curve table — the single renderer shared by
    the CLI and the scenario results."""
    from repro.utils.tables import format_table

    rows = [
        [
            f"{pt.fraction:.2f}",
            f"{pt.mean_latency:.1f}" if pt.mean_latency < 1e12 else "-",
            f"{pt.delivered_ratio:.2f}",
            f"{pt.max_link_utilization:.2f}",
            "DEADLOCK" if pt.deadlocked else ("ok" if pt.stable else "sat"),
        ]
        for pt in points
    ]
    return format_table(
        ["fraction", "latency", "delivered", "max util", "state"], rows
    )


def _aggregate(report: SimulationReport, fraction: float) -> LatencyPoint:
    injected = sum(f.injected_flits for f in report.flows)
    delivered = sum(f.delivered_flits for f in report.flows)
    pkts = sum(f.delivered_packets for f in report.flows)
    if pkts:
        lat = (
            sum(
                f.mean_packet_latency * f.delivered_packets
                for f in report.flows
                if f.delivered_packets
            )
            / pkts
        )
    else:
        lat = UNSTABLE
    return LatencyPoint(
        fraction=fraction,
        injected_flits=injected,
        delivered_flits=delivered,
        mean_latency=float(lat),
        max_link_utilization=float(report.link_utilization.max()),
        deadlocked=False,
    )


def _sweep_point(
    routing: Routing,
    fraction: float,
    *,
    cycles: int,
    warmup: int,
    injection,
    packet_flits: int,
    buffer_flits: int,
    num_vcs: int,
    seed: RngLike,
    flow_table: Optional[FlowTable] = None,
) -> LatencyPoint:
    """Run one offered-load fraction and fold it into a point."""
    sim = ArrayFlitSimulator(
        routing,
        injection=injection,
        rate_scale=fraction,
        packet_flits=packet_flits,
        buffer_flits=buffer_flits,
        num_vcs=num_vcs,
        seed=seed,
        flow_table=flow_table,
    )
    try:
        report = sim.run(cycles, warmup=warmup)
    except DeadlockError:
        return LatencyPoint(
            fraction=fraction,
            injected_flits=0,
            delivered_flits=0,
            mean_latency=UNSTABLE,
            max_link_utilization=1.0,
            deadlocked=True,
        )
    return _aggregate(report, fraction)


def _sweep_point_task(args) -> LatencyPoint:
    """Module-level process-pool entry (one task per fraction)."""
    routing, fraction, kwargs = args
    return _sweep_point(routing, fraction, **kwargs)


def latency_sweep(
    routing: Routing,
    fractions: Sequence[float],
    *,
    cycles: int = 4000,
    warmup: int = 800,
    injection="bernoulli",
    packet_flits: int = 8,
    buffer_flits: int = 4,
    num_vcs: int = 4,
    seed: RngLike = 0,
    jobs: int = 1,
) -> List[LatencyPoint]:
    """Run the simulator at each offered-load fraction of ``routing``.

    Link frequencies stay provisioned for the *nominal* loads; only the
    offered traffic scales.  Deadlocked points (possible only with unsafe
    VC assignments) are reported with ``deadlocked=True`` rather than
    raised, so a sweep can document where an unprotected configuration
    collapses.

    ``jobs > 1`` runs the points on a process pool, one worker task per
    fraction, with bit-identical results in fraction order (parallel
    execution needs a picklable ``routing`` and ``injection`` — registry
    names always are).
    """
    if not fractions:
        raise InvalidParameterError("fractions must be non-empty")
    for frac in fractions:
        if frac <= 0:
            raise InvalidParameterError(f"fractions must be > 0, got {frac}")
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and isinstance(seed, np.random.Generator):
        # a live generator is shared (and advanced) across the serial
        # points but would be *copied* to every worker — the two could
        # never be bit-identical, so refuse rather than silently diverge
        raise InvalidParameterError(
            "parallel sweeps need a reproducible seed (int, SeedSequence "
            "or None), not a live numpy Generator"
        )
    kwargs = dict(
        cycles=cycles,
        warmup=warmup,
        injection=injection,
        packet_flits=packet_flits,
        buffer_flits=buffer_flits,
        num_vcs=num_vcs,
        seed=seed,
    )
    if jobs == 1 or len(fractions) == 1:
        # pay the routing flattening once for the whole curve
        table = build_flow_table(routing, num_vcs=num_vcs)
        return [
            _sweep_point(routing, frac, flow_table=table, **kwargs)
            for frac in fractions
        ]
    tasks = [(routing, frac, kwargs) for frac in fractions]
    with worker_pool(jobs, len(tasks)) as pool:
        return list(pool.map(_sweep_point_task, tasks))


def saturation_fraction(
    points: Sequence[LatencyPoint], *, latency_factor: float = 3.0
) -> float:
    """Estimate where the curve saturates.

    The first swept fraction whose point is unstable *or* whose latency
    exceeds ``latency_factor`` times the lowest-load latency; ``inf`` when
    the curve never saturates inside the sweep.
    """
    if not points:
        raise InvalidParameterError("points must be non-empty")
    if latency_factor <= 1.0:
        raise InvalidParameterError(
            f"latency_factor must be > 1, got {latency_factor}"
        )
    base = points[0].mean_latency
    for pt in points:
        if not pt.stable or (
            np.isfinite(base) and pt.mean_latency > latency_factor * base
        ):
            return pt.fraction
    return float("inf")
