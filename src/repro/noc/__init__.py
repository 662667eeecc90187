"""Flit-level NoC validation substrate.

The paper routes *flows* and assumes "a deadlock avoidance technique is
used (such as resource ordering [5] or escape channels [3])" and a
table-driven deployment.  This package closes that loop:

* :mod:`repro.noc.deadlock` — channel-dependency-graph (CDG) analysis of a
  computed routing, plus the *direction-class* virtual-channel assignment
  (a resource-ordering scheme: every Manhattan path of direction ``d``
  only ever turns between the two link orientations of its quadrant, so
  giving each direction its own VC makes every per-VC CDG acyclic);
* :mod:`repro.noc.simulator` — the cycle-based wormhole model that
  executes a routing's tables with DVFS-scaled link speeds, and the
  report it yields: per-flow throughput, packet latency and per-link
  utilisation — or a :class:`DeadlockError` when the CDG analysis says
  the VC assignment can deadlock;
* :mod:`repro.noc.engine` — the structure-of-arrays wormhole engine that
  runs that model, cycle-exact with the per-flit reference simulator
  kept as the test oracle (``tests/noc_reference.py``; probe-pinned and
  fuzz-proven);
* :mod:`repro.noc.traffic` — deterministic / Bernoulli / bursty arrival
  processes, all meeting the demanded rates in expectation, plus the
  batched arrival precomputation the array engine injects from;
* :mod:`repro.noc.sweep` — load–latency curves of a provisioned routing
  (offered traffic swept past nominal, link DVFS held fixed), with a
  one-process-per-fraction parallel runner;
* :mod:`repro.noc.router_power` — Orion-style buffer/crossbar/arbiter
  energy plus router leakage, to re-examine XY vs Manhattan under total
  network power rather than link power alone.
"""

from repro.noc.deadlock import (
    build_cdg,
    cdg_cycles,
    comm_vcs,
    is_deadlock_free,
    direction_class_vc,
    single_vc,
)
from repro.noc.simulator import (
    FlowTable,
    SimulationReport,
    FlowStats,
    PacketRecord,
    DeadlockError,
    build_flow_table,
)
from repro.noc.engine import ArrayFlitSimulator
from repro.noc.reorder import ReorderStats, reorder_stats, worst_reorder_buffer
from repro.noc.tables import (
    TableConflict,
    destination_table_conflicts,
    flow_link_table,
    router_tables,
    source_routes,
)
from repro.noc.traffic import (
    INJECTION_MODELS,
    BernoulliInjection,
    BurstInjection,
    DeterministicInjection,
)
from repro.noc.sweep import (
    LatencyPoint,
    latency_sweep,
    points_table,
    saturation_fraction,
)
from repro.noc.router_power import (
    NetworkPowerReport,
    RouterPowerModel,
    active_routers,
    network_power,
    router_traffic,
)

__all__ = [
    "TableConflict",
    "destination_table_conflicts",
    "flow_link_table",
    "router_tables",
    "source_routes",
    "ArrayFlitSimulator",
    "FlowTable",
    "build_flow_table",
    "build_cdg",
    "cdg_cycles",
    "comm_vcs",
    "is_deadlock_free",
    "direction_class_vc",
    "single_vc",
    "SimulationReport",
    "FlowStats",
    "DeadlockError",
    "INJECTION_MODELS",
    "DeterministicInjection",
    "BernoulliInjection",
    "BurstInjection",
    "LatencyPoint",
    "latency_sweep",
    "points_table",
    "saturation_fraction",
    "RouterPowerModel",
    "NetworkPowerReport",
    "active_routers",
    "router_traffic",
    "network_power",
    "PacketRecord",
    "ReorderStats",
    "reorder_stats",
    "worst_reorder_buffer",
]
