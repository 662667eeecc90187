"""Request micro-batching: shared request pipeline + the coalescer.

This module owns the **pure** ``/route`` request pipeline (it used to
live in :mod:`repro.service.server`, which now re-exports it):

* :func:`parse_request_doc` — validate knobs, parse the problem and the
  optional previous routing.  With a shared
  :class:`~repro.io.jsonio.ParseCache` a *batch* of requests pays each
  distinct mesh / power-model / previous-routing parse once — under
  churn traffic every request of a batch tends to re-route from the
  same deployed routing, so this is the dominant shared cost.
* :func:`handle_request_doc` — the one-request handler: parse, cache
  probe, :func:`~repro.service.warmstart.route_incremental`, cache
  fill.  Unchanged contract: ``(status, body)``, pure with respect to
  process state modulo the artifact store.
* :func:`handle_batch_docs` — the batch evaluator: the same handler
  over every document of a batch with one shared parse cache, and one
  shared *evaluation* for identical cache-off documents (request
  coalescing — under saturation the same churn re-route is in flight
  many times at once).  Each result is a pure function of its own
  ``(problem, prev, solver, polish, seed)`` — evaluation order cannot
  leak between requests — so batched responses are **bit-identical**
  to one-at-a-time :func:`handle_request_doc` (``elapsed_ms``, a
  wall-clock transport field, is the only exception; tests pin this).
* :func:`probe_request_doc` — the inline cache probe the server runs
  *before* coalescing, so memoized requests are answered from the
  artifact store without occupying a batch slot.
* :class:`MicroBatcher` — the asyncio coalescer: concurrently-queued
  documents are gathered for up to ``window`` seconds (or until
  ``max_batch`` of them wait) and submitted as one batch; each caller
  awaits its own future.

Determinism contract: batching changes *when* work is dispatched,
never *what* is computed — serial, pooled, batched and prefork-sharded
deployments all produce the same response bodies across the
``REPRO_NATIVE`` tiers.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.core.routing import Routing
from repro.experiments.campaign.store import ArtifactStore
from repro.heuristics import available_heuristics
from repro.io.jsonio import (
    ParseCache,
    problem_from_dict,
    routing_from_dict,
    routing_to_dict,
)
from repro.service.cache import (
    RouteRequestKey,
    load_cached,
    request_wire,
    save_cached,
)
from repro.service.warmstart import (
    DEFAULT_POLISH,
    DEFAULT_SOLVER,
    RouteOutcome,
    _check_polish,
    _check_seed,
    route_incremental,
)
from repro.utils.validation import ReproError

#: default ceiling on documents coalesced into one batch submission
DEFAULT_MAX_BATCH = 8

#: list-of-(status, body) — what the batch evaluator returns
BatchResults = List[Tuple[int, Dict[str, Any]]]

#: process-lifetime parse cache shared by every batch this process
#: evaluates.  Promoted from one-instance-per-batch so steady traffic
#: repeating a platform across batches parses it once per process, not
#: once per batch; the LRU bound keeps it from growing with
#: distinct-platform traffic.  Each pool worker holds its own copy — a
#: ParseCache must never cross a process boundary.
_PARSE_CACHE = ParseCache()


def parse_cache_stats() -> Dict[str, int]:
    """This process's shared parse-cache counters (for ``/stats``)."""
    return {
        "parse_cache_hits": _PARSE_CACHE.hits,
        "parse_cache_misses": _PARSE_CACHE.misses,
        "parse_cache_evictions": _PARSE_CACHE.evictions,
    }


def outcome_to_doc(outcome: RouteOutcome) -> Dict[str, Any]:
    """The response payload of a routed request (sans transport fields)."""
    return {
        "mode": outcome.stats.mode,
        "routing": routing_to_dict(outcome.routing),
        "power": outcome.power,
        "valid": outcome.valid,
        "stats": outcome.stats.as_dict(),
    }


def _check_solver(solver: Any) -> str:
    """Validate the request's cold-solve heuristic name eagerly."""
    if not isinstance(solver, str):
        raise ReproError(
            f"solver must be a string, got {type(solver).__name__}"
        )
    if solver not in available_heuristics():
        raise ReproError(
            f"unknown solver {solver!r}; available: "
            f"{', '.join(available_heuristics())}"
        )
    return solver


class ParsedRequest:
    """A validated, parsed ``/route`` document."""

    __slots__ = ("problem", "prev", "solver", "polish", "seed", "want_cache")

    def __init__(self, problem, prev, solver, polish, seed, want_cache):
        self.problem = problem
        self.prev: Optional[Routing] = prev
        self.solver: str = solver
        self.polish: str = polish
        self.seed: int = seed
        self.want_cache: bool = want_cache

    def key(self) -> RouteRequestKey:
        """The canonical artifact-store key of this request."""
        return RouteRequestKey(
            request_wire(
                self.problem, self.prev, self.solver, self.polish, self.seed
            )
        )


def parse_request_doc(
    doc: Any,
    *,
    use_cache: bool = True,
    parse_cache: Optional[ParseCache] = None,
) -> ParsedRequest:
    """Validate and parse one request document (raises :class:`ReproError`).

    The ``seed`` / ``solver`` / ``polish`` knobs are validated eagerly —
    before anything is parsed and regardless of the warm/cold path taken
    — so a bad knob always answers one-line 400 instead of surfacing
    wherever it would first have been used.
    """
    if not isinstance(doc, dict):
        raise ReproError("request body must be a JSON object")
    if "problem" not in doc:
        raise ReproError("request is missing the 'problem' document")
    solver = _check_solver(doc.get("solver", DEFAULT_SOLVER))
    polish = doc.get("polish", DEFAULT_POLISH)
    if not isinstance(polish, str):
        raise ReproError(
            f"polish must be a string, got {type(polish).__name__}"
        )
    _check_polish(polish)
    seed = _check_seed(doc.get("seed", 0))
    problem = problem_from_dict(doc["problem"], parse_cache)
    prev_doc = doc.get("prev")
    prev: Optional[Routing] = (
        None if prev_doc is None else routing_from_dict(prev_doc, parse_cache)
    )
    want_cache = use_cache and bool(doc.get("cache", True))
    return ParsedRequest(problem, prev, solver, polish, seed, want_cache)


def handle_request_doc(
    doc: Any,
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    parse_cache: Optional[ParseCache] = None,
) -> Tuple[int, Dict[str, Any]]:
    """Handle one ``/route`` request document → ``(status, body)``.

    Pure with respect to process state (modulo the artifact store under
    ``cache_dir``): safe to run inline, in a worker process, or straight
    from a test.  A shared ``parse_cache`` only memoizes document
    parsing — the computed response is unaffected.
    """
    t0 = time.perf_counter()
    try:
        req = parse_request_doc(
            doc, use_cache=use_cache, parse_cache=parse_cache
        )
        key = req.key()
        store = ArtifactStore(cache_dir) if req.want_cache else None
        if store is not None:
            cached = load_cached(store, key)
            if cached is not None:
                body = dict(cached)
                body["ok"] = True
                body["cache_hit"] = True
                body["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
                return 200, body
        outcome = route_incremental(
            req.problem,
            req.prev,
            solver=req.solver,
            polish=req.polish,
            seed=req.seed,
        )
        body = outcome_to_doc(outcome)
        if store is not None:
            save_cached(
                store, key, body, wall_time_s=time.perf_counter() - t0
            )
        body["ok"] = True
        body["cache_hit"] = False
        body["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
        return 200, body
    except ReproError as exc:
        return 400, {"ok": False, "error": str(exc)}


def _coalesce_key(doc: Any, use_cache: bool) -> Optional[str]:
    """The within-batch identity of ``doc``, or ``None`` if not eligible.

    Only *cache-off* documents coalesce.  For them evaluation is a pure
    deterministic function of the document, so identical copies in one
    batch may share a single evaluation bit-for-bit.  A cache-on
    document must not: replayed serially, the first copy fills the
    artifact store and the second answers ``cache_hit: true`` — sharing
    one evaluation would change that body.
    """
    if not isinstance(doc, dict):
        return None
    if use_cache and bool(doc.get("cache", True)):
        return None
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None


def handle_batch_docs(
    docs: List[Any],
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> BatchResults:
    """Evaluate a batch of request documents → one ``(status, body)`` each.

    The process-lifetime :class:`~repro.io.jsonio.ParseCache` is shared
    across the batch (and every batch before it), so requests repeating
    a mesh / power model / previous routing parse it (and build its
    platform caches) once.  Identical *cache-off* documents go further
    and share one evaluation outright (see :func:`_coalesce_key`) —
    under saturation the same churn re-route is often in flight many
    times at once, and one answer serves every copy.  Results are
    bit-identical to calling :func:`handle_request_doc` once per
    document — each response is a pure function of its own request.
    """
    parse_cache = _PARSE_CACHE
    keys = [_coalesce_key(doc, use_cache) for doc in docs]
    first_seen: Dict[str, int] = {}
    results: List[Optional[Tuple[int, Dict[str, Any]]]] = [None] * len(docs)
    for i, doc in enumerate(docs):
        if keys[i] is not None:
            if keys[i] in first_seen:
                continue  # replica — filled from its prototype below
            first_seen[keys[i]] = i
        results[i] = handle_request_doc(
            doc,
            cache_dir=cache_dir,
            use_cache=use_cache,
            parse_cache=parse_cache,
        )
    for i in range(len(docs)):
        if results[i] is None:
            status, body = results[first_seen[keys[i]]]
            results[i] = (status, dict(body))
    return results


def probe_request_doc(
    doc: Any,
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Inline cache probe: answer without compute when possible.

    Returns the ``(status, body)`` answer for memoized requests (a
    cache hit, bit-identical to the cached document) and for invalid
    documents (the same one-line 400 the handler would produce — the
    probe and the handler share :func:`parse_request_doc`, so the
    answers cannot drift).  Returns ``None`` when the request needs
    compute, i.e. should join a batch.
    """
    t0 = time.perf_counter()
    try:
        req = parse_request_doc(doc, use_cache=use_cache)
    except ReproError as exc:
        return 400, {"ok": False, "error": str(exc)}
    if not req.want_cache:
        return None
    cached = load_cached(ArtifactStore(cache_dir), req.key())
    if cached is None:
        return None
    body = dict(cached)
    body["ok"] = True
    body["cache_hit"] = True
    body["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
    return 200, body


def _batch_pool_worker(
    docs: List[Any],
    cache_dir: Optional[str],
    use_cache: bool,
) -> BatchResults:
    """Picklable pool entry point for one batch submission."""
    return handle_batch_docs(docs, cache_dir=cache_dir, use_cache=use_cache)


class MicroBatcher:
    """Coalesce concurrently-queued documents into batch submissions.

    Parameters
    ----------
    submit:
        Async callable evaluating one batch:
        ``submit(docs) -> [(status, body), ...]`` (one result per
        document, in order).  It must not raise for per-document
        failures — those are ``(status, body)`` results; only a broken
        transport may raise, and the exception is fanned out to every
        caller of the batch.
    window:
        Seconds a batch collects before it is submitted.  ``0`` still
        coalesces: the flush is deferred one event-loop tick, so
        documents queued in the same tick share a batch.
    max_batch:
        Submit immediately once this many documents wait.

    Every caller of :meth:`route` awaits a future resolved with its own
    document's result.  The batcher only groups *dispatch* — evaluation
    semantics live entirely in ``submit``.
    """

    def __init__(
        self,
        submit: Callable[[List[Any]], Awaitable[BatchResults]],
        *,
        window: float,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        if not window >= 0:
            raise ReproError(
                f"batch window must be >= 0 seconds, got {window!r}"
            )
        if isinstance(max_batch, bool) or not isinstance(max_batch, int) \
                or max_batch < 1:
            raise ReproError(
                f"max_batch must be an integer >= 1, got {max_batch!r}"
            )
        self._submit = submit
        self.window = float(window)
        self.max_batch = max_batch
        self._pending: List[Tuple[Any, asyncio.Future]] = []
        self._flusher: Optional[asyncio.Task] = None
        self._tasks: set = set()
        #: batches submitted / documents batched (observability)
        self.batches = 0
        self.batched = 0

    async def route(self, doc: Any) -> Tuple[int, Dict[str, Any]]:
        """Queue ``doc`` for the next batch; await its own result."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append((doc, fut))
        self.batched += 1
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._flusher is None:
            self._flusher = asyncio.ensure_future(self._flush_after_window())
        return await fut

    async def _flush_after_window(self) -> None:
        await asyncio.sleep(self.window)
        self._flusher = None
        self.flush()

    def flush(self) -> None:
        """Submit whatever waits right now (idempotent when empty)."""
        if self._flusher is not None:
            self._flusher.cancel()
            self._flusher = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        self.batches += 1
        task = asyncio.ensure_future(self._run(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, batch: List[Tuple[Any, asyncio.Future]]) -> None:
        try:
            results = await self._submit([doc for doc, _ in batch])
        except Exception as exc:  # fan the transport failure out
            for _, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for (_, fut), result in zip(batch, results):
            if not fut.done():
                fut.set_result(result)
