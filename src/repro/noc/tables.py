"""Routing-table export: source routes and per-router tables.

The paper (Section 1): "Each communication is routed from source to
destination along a given path using either source routing or table-based
routing."  This module materialises both deployment artefacts from a
computed routing:

* :func:`source_routes` — per flow, the ordered list of output ports the
  header would encode (source routing);
* :func:`router_tables` — per router, the ``(comm id, flow id) → output
  port`` match-action table (table-based routing with per-flow keys);
* :func:`destination_table_conflicts` — a feasibility check for the
  *cheaper* per-destination tables: two flows to the same destination that
  need different output ports at one router cannot share a plain
  destination-indexed table entry; the conflicts returned are the routers
  where per-flow (or VC-disambiguated) tables are actually required.
* :func:`flow_link_table` — the flit engines' ``(flow, hop) → link id``
  tables, computed with the flat kernel's O(1) id arithmetic
  (:func:`repro.mesh.kernel.direction_link_bases`) instead of per-hop
  ``link_between`` walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.routing import Routing
from repro.mesh.diagonals import direction_of, direction_steps
from repro.mesh.kernel import links_from_vmask, moves_to_vmask
from repro.mesh.topology import Mesh

Coord = Tuple[int, int]
#: table key: (router, comm index, flow index)
FlowKey = Tuple[Coord, int, int]


@dataclass(frozen=True)
class TableConflict:
    """Two flows toward one destination diverging at one router."""

    router: Coord
    destination: Coord
    ports: Tuple[str, ...]
    flows: Tuple[Tuple[int, int], ...]  #: (comm, flow) pairs involved


def _port_of(mesh: Mesh, tail: Coord, head: Coord) -> str:
    return mesh.link_orientation(mesh.link_between(tail, head)).value


def source_routes(routing: Routing) -> List[List[List[str]]]:
    """Per communication, per flow: the ordered output-port list.

    ``result[i][j]`` is the port sequence (e.g. ``['E', 'E', 'S']``) flow
    ``j`` of communication ``i`` would carry in its header under source
    routing.
    """
    mesh = routing.problem.mesh
    out: List[List[List[str]]] = []
    for flows in routing.flows:
        per_comm = []
        for f in flows:
            cores = f.path.cores()
            per_comm.append(
                [_port_of(mesh, a, b) for a, b in zip(cores, cores[1:])]
            )
        out.append(per_comm)
    return out


def router_tables(routing: Routing) -> Dict[Coord, Dict[Tuple[int, int], str]]:
    """Per-router match-action tables keyed by ``(comm, flow)``.

    ``tables[router][(i, j)] = port`` — the exact deployment of the
    paper's "table-based routing" for per-flow keys.  Entries exist for
    every router a flow transits (its source included, its sink excluded).
    """
    mesh = routing.problem.mesh
    tables: Dict[Coord, Dict[Tuple[int, int], str]] = {}
    for i, flows in enumerate(routing.flows):
        for j, f in enumerate(flows):
            cores = f.path.cores()
            for a, b in zip(cores, cores[1:]):
                tables.setdefault(a, {})[(i, j)] = _port_of(mesh, a, b)
    return tables


def flow_link_table(routing: Routing) -> List[Tuple[int, ...]]:
    """Per-flow hop tables: ``table[f][h]`` is the link id of hop ``h``.

    Flows are flattened in the simulators' order (communications in
    problem order, each communication's flows in routing order), so
    ``table[f]`` is exactly the ``(flow, hop) → link id`` lookup both flit
    engines deploy.  Link ids are produced by the flat kernel's
    :func:`~repro.mesh.kernel.direction_link_bases` arithmetic — one
    vectorised :func:`~repro.mesh.kernel.links_from_vmask` call per flow,
    no per-hop ``link_between`` walks.
    """
    mesh = routing.problem.mesh
    out: List[Tuple[int, ...]] = []
    steps_memo: Dict[Tuple[Coord, Coord], Tuple[int, int]] = {}
    for flows in routing.flows:
        for f in flows:
            key = (f.path.src, f.path.snk)
            steps = steps_memo.get(key)
            if steps is None:
                steps = direction_steps(direction_of(*key))
                steps_memo[key] = steps
            lids = links_from_vmask(
                mesh, f.path.src, steps[0], steps[1],
                moves_to_vmask(f.path.moves),
            )
            out.append(tuple(int(x) for x in lids))
    return out


def destination_table_conflicts(routing: Routing) -> List[TableConflict]:
    """Where plain destination-indexed tables would be ambiguous.

    XY routing never conflicts (its next hop is a function of the current
    router and the destination alone); power-aware Manhattan routings
    generally do — the returned conflicts quantify the extra table state
    (per-flow entries, or one VC per conflicting class) the deployment
    needs, which is the systems cost the paper's conclusion alludes to.
    """
    mesh = routing.problem.mesh
    by_router_dest: Dict[Tuple[Coord, Coord], Dict[str, List[Tuple[int, int]]]] = {}
    for i, flows in enumerate(routing.flows):
        dest = routing.problem.comms[i].snk
        for j, f in enumerate(flows):
            cores = f.path.cores()
            for a, b in zip(cores, cores[1:]):
                port = _port_of(mesh, a, b)
                by_router_dest.setdefault((a, dest), {}).setdefault(
                    port, []
                ).append((i, j))
    conflicts = []
    for (router, dest), ports in sorted(by_router_dest.items()):
        if len(ports) > 1:
            conflicts.append(
                TableConflict(
                    router=router,
                    destination=dest,
                    ports=tuple(sorted(ports)),
                    flows=tuple(
                        sorted(fl for port in ports.values() for fl in port)
                    ),
                )
            )
    return conflicts
