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
from typing import Any, Dict, Union

from repro.core.power import PowerModel
from repro.core.problem import Communication, RoutingProblem
from repro.core.routing import RoutedFlow, Routing
from repro.mesh.paths import Path
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

PathLike = Union[str, pathlib.Path]

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


def problem_from_dict(d: Dict[str, Any]) -> RoutingProblem:
    """Rebuild a problem (re-validating every field)."""
    if d.get("format") not in (PROBLEM_FORMAT, PROBLEM_FORMAT_PROFILED):
        raise InvalidParameterError(
            f"expected format {PROBLEM_FORMAT!r} or "
            f"{PROBLEM_FORMAT_PROFILED!r}, got {d.get('format')!r}"
        )
    mesh = _mesh_from_dict(d["mesh"])
    power = _power_from_dict(d["power"])
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


def routing_from_dict(d: Dict[str, Any]) -> Routing:
    """Rebuild a routing; paths are re-validated against the problem."""
    if d.get("format") not in (ROUTING_FORMAT, ROUTING_FORMAT_PROFILED):
        raise InvalidParameterError(
            f"expected format {ROUTING_FORMAT!r} or "
            f"{ROUTING_FORMAT_PROFILED!r}, got {d.get('format')!r}"
        )
    problem = problem_from_dict(d["problem"])
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
