"""Routing-as-a-service: warm-start incremental re-routing under churn.

The serving layer on top of the heuristics: a long-lived asyncio server
(:mod:`repro.service.server`, ``repro serve``) accepts mesh+workload
request documents, routes them, and memoizes finished responses in the
content-addressed artifact store (:mod:`repro.service.cache`).  Requests
that carry the client's previous routing are **warm-started** — matched,
seeded, incrementally repaired and locally polished instead of
cold-solved (:mod:`repro.service.warmstart`) — which is what makes
resubmission-heavy churn traffic (rate drift, comms added/removed, link
failures) cheap.  :mod:`repro.service.client` is the stdlib-only client
the ``repro route --server/--socket`` remote mode uses; the E-CHURN
bench (``benchmarks/record_baseline.py --suite churn``) pins the
warm-vs-cold speedup and the SLA latency percentiles.

The resilience layer (:mod:`repro.service.resilience`) keeps the
service honest under load and infrastructure faults: bounded admission
with 429 backpressure, per-phase deadlines (504 on compute overrun),
transparent worker-pool rebuild after a crashed worker, keep-alive
client connections with seeded retry/backoff, graceful drain on
SIGTERM, and a deterministic :class:`FaultPlan` harness that scripts
worker crashes / compute delays / dropped connections so every
recovery path is exercised by ordinary tests and the E-SOAK chaos
bench (``--suite soak``).

Every ``/route`` request takes one path: admission, then the
request pipeline of :mod:`repro.service.batching`, run inline
(``--jobs 1``) or in a worker pool (``--jobs N``).  To use more cores
for the front itself, :func:`run_prefork` (:mod:`repro.service.prefork`,
``repro serve --shards N``) forks N accept-loop shards over one
``SO_REUSEPORT`` port (or one inherited unix socket), restarts dead
shards, and aggregates ``/stats`` across the fleet.
"""

from repro.service.batching import (
    ParsedRequest,
    handle_request_doc,
    outcome_to_doc,
    parse_request_doc,
)
from repro.service.cache import (
    SERVICE_CACHE_NAME,
    RouteRequestKey,
    load_cached,
    request_wire,
    save_cached,
)
from repro.service.client import DEFAULT_HOST, READY_POLICY, ServiceClient
from repro.service.prefork import ShardServer, StatsBoard, run_prefork
from repro.service.resilience import (
    FAULTS_ENV,
    RETRYABLE_STATUSES,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TruncatedResponseError,
    parse_retry_after,
)
from repro.service.server import DEFAULT_PORT, RoutingServer
from repro.service.warmstart import (
    DEFAULT_POLISH,
    DEFAULT_SOLVER,
    POLISH_MODES,
    RepairStats,
    RouteOutcome,
    SeedMatch,
    match_previous,
    repair_state,
    route_incremental,
)

__all__ = [
    "ParsedRequest",
    "parse_request_doc",
    "ShardServer",
    "StatsBoard",
    "run_prefork",
    "SERVICE_CACHE_NAME",
    "RouteRequestKey",
    "load_cached",
    "request_wire",
    "save_cached",
    "DEFAULT_HOST",
    "READY_POLICY",
    "ServiceClient",
    "FAULTS_ENV",
    "RETRYABLE_STATUSES",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "TruncatedResponseError",
    "parse_retry_after",
    "DEFAULT_PORT",
    "RoutingServer",
    "handle_request_doc",
    "outcome_to_doc",
    "DEFAULT_POLISH",
    "DEFAULT_SOLVER",
    "POLISH_MODES",
    "RepairStats",
    "RouteOutcome",
    "SeedMatch",
    "match_previous",
    "repair_state",
    "route_incremental",
]
