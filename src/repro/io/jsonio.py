"""JSON round-trip for problems and routings.

The schema is versioned (``"format": "repro/problem@1"`` etc.) and
deliberately explicit: meshes by shape, power models by their parameters,
communications by endpoints and rate, routings by per-flow move strings —
everything needed to rebuild the objects through their validating
constructors (loading runs the same checks as building by hand).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.power import PowerModel
from repro.core.problem import Communication, RoutingProblem
from repro.core.routing import RoutedFlow, Routing
from repro.mesh.paths import Path
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

PathLike = Union[str, pathlib.Path]

#: default ceiling on memoized parses per :class:`ParseCache` — sized for
#: the service front, where one cache lives for the whole process
_PARSE_CACHE_DEFAULT = 256


class ParseCache:
    """Equality-keyed LRU memo for repeated document parses.

    Batched service requests routinely repeat sub-documents: every
    request of a batch tends to share one mesh, one power model and —
    under churn traffic — one previous routing.  A ``ParseCache``
    passed to the ``*_from_dict`` loaders memoizes parsed objects by
    the canonical JSON of their source document, so a batch pays each
    distinct parse (and the platform caches hanging off it: link
    arrays, graded power tables, routing kernels) once instead of once
    per request.

    The memo is bounded: at most ``maxsize`` entries (256 by default),
    least-recently-*used* evicted first, with the eviction count kept on
    :attr:`evictions`.  A process-lifetime cache under adversarial
    traffic (every request a distinct mesh) therefore stays O(maxsize)
    instead of growing without bound.

    Sharing is sound because parsing is a pure function of the
    document and every consumer treats the parsed objects as
    immutable (their internal lazy caches are deterministic).  A cache
    may live as long as its process; never share one across worker
    processes.
    """

    __slots__ = ("_memo", "maxsize", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = _PARSE_CACHE_DEFAULT) -> None:
        if maxsize < 1:
            raise InvalidParameterError(
                f"ParseCache maxsize must be >= 1, got {maxsize}"
            )
        self._memo: Dict[Tuple[str, str], Any] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, kind: str, doc: Any, build: Callable[[Any], Any]) -> Any:
        """Parse ``doc`` via ``build``, memoized under ``(kind, doc)``.

        Failed parses are never memoized; a document that cannot be
        canonicalised is parsed uncached.
        """
        try:
            key = (kind, json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")))
        except (TypeError, ValueError):
            return build(doc)
        try:
            # pop + reinsert keeps the dict in recency order, so the
            # oldest entry (the eviction victim) is always first
            value = self._memo.pop(key)
        except KeyError:
            self.misses += 1
            value = build(doc)
            while len(self._memo) >= self.maxsize:
                self._memo.pop(next(iter(self._memo)))
                self.evictions += 1
        else:
            self.hits += 1
        self._memo[key] = value
        return value


def _via(cache: Optional[ParseCache], kind: str, doc: Any,
         build: Callable[[Any], Any]) -> Any:
    return build(doc) if cache is None else cache.get(kind, doc, build)

PROBLEM_FORMAT = "repro/problem@1"
ROUTING_FORMAT = "repro/routing@1"
#: written instead when the mesh carries a link profile (faults/scaling):
#: the profile changes validity/power semantics, so pre-profile readers —
#: which would silently rebuild a pristine mesh — must reject, not misread
PROBLEM_FORMAT_PROFILED = "repro/problem@2"
ROUTING_FORMAT_PROFILED = "repro/routing@2"


def _power_to_dict(p: PowerModel) -> Dict[str, Any]:
    return {
        "p_leak": p.p_leak,
        "p0": p.p0,
        "alpha": p.alpha,
        "bandwidth": p.bandwidth,
        "frequencies": list(p.frequencies) if p.frequencies else None,
        "freq_unit": p.freq_unit,
    }


def _power_from_dict(d: Dict[str, Any]) -> PowerModel:
    freqs = d.get("frequencies")
    return PowerModel(
        p_leak=float(d["p_leak"]),
        p0=float(d["p0"]),
        alpha=float(d["alpha"]),
        bandwidth=float(d["bandwidth"]),
        frequencies=tuple(freqs) if freqs else None,
        freq_unit=float(d.get("freq_unit", 1.0)),
    )


def _mesh_to_dict(mesh: Mesh) -> Dict[str, Any]:
    """Mesh with its optional link profile (faults / power scaling)."""
    out: Dict[str, Any] = {"p": mesh.p, "q": mesh.q}
    if mesh.link_mask is not None:
        out["dead_links"] = mesh.dead_link_ids()
    if mesh.link_scale is not None:
        out["link_scale"] = [float(s) for s in mesh.link_scale]
    return out


def _mesh_from_dict(d: Dict[str, Any]) -> Mesh:
    mesh = Mesh(int(d["p"]), int(d["q"]))
    dead = d.get("dead_links")
    if dead:
        mesh = mesh.with_faults([int(l) for l in dead])
    scale = d.get("link_scale")
    if scale is not None:
        mesh = mesh.with_link_scale([float(s) for s in scale])
    return mesh


def problem_to_dict(problem: RoutingProblem) -> Dict[str, Any]:
    """Serialisable representation of a routing problem."""
    return {
        "format": (
            PROBLEM_FORMAT
            if problem.mesh.is_pristine
            else PROBLEM_FORMAT_PROFILED
        ),
        "mesh": _mesh_to_dict(problem.mesh),
        "power": _power_to_dict(problem.power),
        "comms": [
            {"src": list(c.src), "snk": list(c.snk), "rate": c.rate}
            for c in problem.comms
        ],
    }


def problem_from_dict(
    d: Dict[str, Any], cache: Optional[ParseCache] = None
) -> RoutingProblem:
    """Rebuild a problem (re-validating every field).

    With a :class:`ParseCache`, the problem and its mesh / power-model
    sub-documents are interned by canonical JSON, so repeated documents
    share one parsed object (and its platform caches).
    """
    return _via(cache, "problem", d, lambda doc: _build_problem(doc, cache))


def _build_problem(
    d: Dict[str, Any], cache: Optional[ParseCache]
) -> RoutingProblem:
    if d.get("format") not in (PROBLEM_FORMAT, PROBLEM_FORMAT_PROFILED):
        raise InvalidParameterError(
            f"expected format {PROBLEM_FORMAT!r} or "
            f"{PROBLEM_FORMAT_PROFILED!r}, got {d.get('format')!r}"
        )
    mesh = _via(cache, "mesh", d["mesh"], _mesh_from_dict)
    power = _via(cache, "power", d["power"], _power_from_dict)
    comms = [
        Communication(tuple(c["src"]), tuple(c["snk"]), float(c["rate"]))
        for c in d["comms"]
    ]
    return RoutingProblem(mesh, power, comms)


def routing_to_dict(routing: Routing) -> Dict[str, Any]:
    """Serialisable representation of a routing (with its problem)."""
    return {
        "format": (
            ROUTING_FORMAT
            if routing.problem.mesh.is_pristine
            else ROUTING_FORMAT_PROFILED
        ),
        "problem": problem_to_dict(routing.problem),
        "flows": [
            [{"moves": f.path.moves, "rate": f.rate} for f in fl]
            for fl in routing.flows
        ],
    }


def routing_from_dict(
    d: Dict[str, Any], cache: Optional[ParseCache] = None
) -> Routing:
    """Rebuild a routing; paths are re-validated against the problem.

    With a :class:`ParseCache`, the whole routing (and its embedded
    problem document) is interned — a batch of requests warm-starting
    from the same previous routing parses it once.
    """
    return _via(cache, "routing", d, lambda doc: _build_routing(doc, cache))


def _build_routing(
    d: Dict[str, Any], cache: Optional[ParseCache]
) -> Routing:
    if d.get("format") not in (ROUTING_FORMAT, ROUTING_FORMAT_PROFILED):
        raise InvalidParameterError(
            f"expected format {ROUTING_FORMAT!r} or "
            f"{ROUTING_FORMAT_PROFILED!r}, got {d.get('format')!r}"
        )
    problem = problem_from_dict(d["problem"], cache)
    flows = []
    for comm, fl in zip(problem.comms, d["flows"]):
        flows.append(
            [
                RoutedFlow(
                    Path(problem.mesh, comm.src, comm.snk, f["moves"]),
                    float(f["rate"]),
                )
                for f in fl
            ]
        )
    if len(d["flows"]) != problem.num_comms:
        raise InvalidParameterError(
            f"routing has {len(d['flows'])} flow lists for "
            f"{problem.num_comms} communications"
        )
    return Routing(problem, flows)


def save_problem(problem: RoutingProblem, path: PathLike) -> None:
    """Write a problem to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(problem_to_dict(problem), indent=2) + "\n"
    )


def load_problem(path: PathLike) -> RoutingProblem:
    """Read a problem from a JSON file."""
    return problem_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_routing(routing: Routing, path: PathLike) -> None:
    """Write a routing (and its problem) to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(routing_to_dict(routing), indent=2) + "\n"
    )


def load_routing(path: PathLike) -> Routing:
    """Read a routing from a JSON file."""
    return routing_from_dict(json.loads(pathlib.Path(path).read_text()))
