"""The ``/route`` request pipeline: parse, cache probe, route, fill.

Every ``/route`` body the server accepts runs through
:func:`handle_request_doc` — inline on the event-loop thread or in a
pool worker, the same function either way:

* :func:`parse_request_doc` — validate the knobs, parse the problem
  and the optional previous routing into a :class:`ParsedRequest`.
* :func:`handle_request_doc` — the one-request handler: parse, cache
  probe, :func:`~repro.service.warmstart.route_incremental`, cache
  fill.  Its contract is ``(status, body)``, pure with respect to
  process state modulo the artifact store, so inline, pooled and
  prefork-sharded deployments produce the same response bodies across
  the ``REPRO_NATIVE`` tiers (``elapsed_ms``, a wall-clock transport
  field, is the only exception).

The module keeps its historical name because the benchmark's traced
serve run (``perfbench/wl_serve.py``) wraps nine of its attributes by
name: ``handle_request_doc``, ``parse_request_doc``,
``problem_from_dict``, ``routing_from_dict``, ``ParsedRequest.key``,
``load_cached``, ``route_incremental``, ``outcome_to_doc`` and
``save_cached``.  They must stay module-level names that the pipeline
looks up at call time (``tests/test_perfbench_targets.py`` pins them).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.core.routing import Routing
from repro.experiments.campaign.store import ArtifactStore
from repro.heuristics import available_heuristics
from repro.io.jsonio import (
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


def parse_request_doc(doc: Any, *, use_cache: bool = True) -> ParsedRequest:
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
    problem = problem_from_dict(doc["problem"])
    prev_doc = doc.get("prev")
    prev: Optional[Routing] = (
        None if prev_doc is None else routing_from_dict(prev_doc)
    )
    want_cache = use_cache and bool(doc.get("cache", True))
    return ParsedRequest(problem, prev, solver, polish, seed, want_cache)


def handle_request_doc(
    doc: Any,
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> Tuple[int, Dict[str, Any]]:
    """Handle one ``/route`` request document → ``(status, body)``.

    Pure with respect to process state (modulo the artifact store under
    ``cache_dir``): safe to run inline, in a worker process, or straight
    from a test.
    """
    t0 = time.perf_counter()
    try:
        req = parse_request_doc(doc, use_cache=use_cache)
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
