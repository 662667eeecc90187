"""TB — the two-bend heuristic (Section 5.3).

Communications are processed by decreasing weight.  For each one, every
routing with at most two bends is tried — the H–V–H and V–H–V staircases,
at most ``Δu + Δv`` distinct candidates — and the one adding the least
(graded) power to the current loads is kept.

The candidate set depends only on the displacement ``(Δu, Δv)``, so the
move strings and their boolean move arrays are cached displacement-keyed
and shared across communications and instances; per communication the
whole candidate set is scored with one batched
:meth:`~repro.core.power.PowerModel.link_power_graded` evaluation over the
``candidates × hops`` link matrix produced by the vectorised kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.ordering import DEFAULT_ORDERING
from repro.mesh.diagonals import direction_steps
from repro.mesh.kernel import links_from_vmask, stack_vmasks
from repro.mesh.moves import two_bend_moves
from repro.mesh.paths import Path


@lru_cache(maxsize=None)
def _two_bend_candidates(du: int, dv: int) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Two-bend move strings and their vmask matrix for one displacement.

    Move strings are direction-agnostic, so the cache key is just
    ``(Δu, Δv)`` — every communication with that displacement shares the
    same candidate set regardless of where it sits on the mesh.
    """
    cands = tuple(two_bend_moves((0, 0), (du, dv)))
    vmasks = stack_vmasks(cands)
    vmasks.setflags(write=False)
    return cands, vmasks


@register_heuristic("TB")
class TwoBend(Heuristic):
    """Exhaustive search over ≤2-bend paths, greedily per communication."""

    def __init__(self, ordering: str = DEFAULT_ORDERING):
        self.ordering = ordering

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        power = problem.power
        scale = mesh.link_scale
        dead = mesh.dead_mask
        loads = np.zeros(mesh.num_links, dtype=np.float64)
        paths: List[Path | None] = [None] * problem.num_comms
        for i in problem.order_by(self.ordering):
            comm = problem.comms[i]
            rate = comm.rate
            cands, vmasks = _two_bend_candidates(comm.delta_u, comm.delta_v)
            su, sv = direction_steps(comm.direction)
            lid_matrix = links_from_vmask(mesh, comm.src, su, sv, vmasks)
            before = loads[lid_matrix]
            if scale is None and dead is None:
                graded = power.link_power_graded(
                    np.stack((before + rate, before))
                )
            else:
                # gather the candidates' per-link coefficients; a candidate
                # crossing a dead link draws the zero-bandwidth penalty, so
                # argmin avoids dead links whenever any ≤2-bend path does
                sc = None if scale is None else np.stack((s := scale[lid_matrix], s))
                dd = None if dead is None else np.stack((d := dead[lid_matrix], d))
                graded = power.link_power_graded(
                    np.stack((before + rate, before)), scale=sc, dead=dd
                )
            delta = graded[0].sum(axis=1) - graded[1].sum(axis=1)
            best = int(np.argmin(delta))
            lids = lid_matrix[best]
            loads[lids] += rate
            paths[i] = Path.from_validated(
                mesh, comm.src, comm.snk, cands[best], lids
            )
        return paths  # type: ignore[return-value]