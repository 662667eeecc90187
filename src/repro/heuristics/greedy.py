"""SG — the simple greedy heuristic (Section 5.1).

Communications are processed by decreasing weight.  Each path is built hop
by hop from the source: among the (at most two) Manhattan-feasible next
links, take the least loaded one; on a tie, take the link whose head core
is closest to the straight diagonal from the source to the sink.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.ordering import DEFAULT_ORDERING
from repro.mesh.diagonals import direction_steps
from repro.mesh.kernel import direction_link_bases
from repro.mesh.moves import MOVE_H, MOVE_V
from repro.mesh.paths import Path

Coord = Tuple[int, int]


def diagonal_offset(src: Coord, snk: Coord, core: Coord) -> float:
    """Unnormalised distance of ``core`` from the straight line src→snk.

    The absolute value of the cross product of (snk − src) and
    (core − src); proportional to the perpendicular distance, which is all
    a comparison needs.
    """
    du, dv = snk[0] - src[0], snk[1] - src[1]
    cu, cv = core[0] - src[0], core[1] - src[1]
    return abs(du * cv - dv * cu)


@register_heuristic("SG")
class SimpleGreedy(Heuristic):
    """Least-loaded-next-link greedy with diagonal tie-breaking.

    Parameters
    ----------
    ordering:
        Communication processing order; the paper's default is decreasing
        weight (see :mod:`repro.heuristics.ordering`).
    """

    def __init__(self, ordering: str = DEFAULT_ORDERING):
        self.ordering = ordering

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        # plain Python floats: SG only ever touches single links, and list
        # indexing beats ndarray scalar indexing in the hop loop
        loads = [0.0] * mesh.num_links
        q = mesh.q
        alive = mesh.link_mask  # None on pristine meshes
        paths: List[Path | None] = [None] * problem.num_comms
        for i in problem.order_by(self.ordering):
            comm = problem.comms[i]
            su, sv = direction_steps(comm.direction)
            # O(1) link ids: vertical hop from (u, v) is vbase + u*q + v,
            # horizontal is hbase + u*(q-1) + v (bases fold the direction
            # in; the arithmetic lives in kernel.direction_link_bases)
            vbase, hbase = direction_link_bases(mesh, su, sv)
            rate = comm.rate
            (u, v), snk = comm.src, comm.snk
            snk_u, snk_v = snk
            # fault-awareness: when the mesh has dead links and this
            # communication still has a live Manhattan path, constrain the
            # walk to hops whose link is alive and whose head can still
            # reach the sink over alive links (so the greedy walk never
            # dead-ends).  Blocked communications fall back to the
            # unconstrained walk and are reported invalid by evaluation.
            bwd = None
            if alive is not None:
                dag = problem.dag(i)
                if dag.has_live_path():
                    bwd = dag.live_reachability()[1]
            x = y = 0  # progress coordinates (only consulted when bwd set)
            moves: List[str] = []
            lids: List[int] = []
            while u != snk_u or v != snk_v:
                if u == snk_u:
                    move, lid = MOVE_H, hbase + u * (q - 1) + v
                elif v == snk_v:
                    move, lid = MOVE_V, vbase + u * q + v
                else:
                    lv = vbase + u * q + v
                    lh = hbase + u * (q - 1) + v
                    forced = None
                    if bwd is not None:
                        viab_v = alive[lv] and bwd[x + 1, y]
                        viab_h = alive[lh] and bwd[x, y + 1]
                        if viab_v != viab_h:
                            forced = (
                                (MOVE_V, lv) if viab_v else (MOVE_H, lh)
                            )
                    if forced is not None:
                        move, lid = forced
                    else:
                        load_v, load_h = loads[lv], loads[lh]
                        if load_v < load_h:
                            move, lid = MOVE_V, lv
                        elif load_h < load_v:
                            move, lid = MOVE_H, lh
                        else:
                            # tie: head core closest to the src->snk
                            # diagonal; a residual tie prefers the
                            # horizontal link (XY-like)
                            dv_off = diagonal_offset(comm.src, snk, (u + su, v))
                            dh_off = diagonal_offset(comm.src, snk, (u, v + sv))
                            if dv_off < dh_off:
                                move, lid = MOVE_V, lv
                            else:
                                move, lid = MOVE_H, lh
                loads[lid] += rate
                moves.append(move)
                lids.append(lid)
                if move == MOVE_V:
                    u += su
                    x += 1
                else:
                    v += sv
                    y += 1
            paths[i] = Path.from_validated(
                mesh, comm.src, snk, "".join(moves),
                np.asarray(lids, dtype=np.int64),
            )
        return paths  # type: ignore[return-value]
