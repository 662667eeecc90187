"""XY and YX baseline routings.

XY is "the most natural and widely used algorithm": every communication
travels all of its horizontal hops first, then its vertical hops.  There is
no routing freedom, so the result is deterministic and oblivious to load.
YX is the transposed baseline, used in the Lemma 2 worst-case instance.
"""

from __future__ import annotations

from typing import List

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.mesh.paths import Path


@register_heuristic("XY")
class XYRouting(Heuristic):
    """Route every communication horizontally first, then vertically."""

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        return [Path.xy(mesh, c.src, c.snk) for c in problem.comms]


@register_heuristic("YX")
class YXRouting(Heuristic):
    """Route every communication vertically first, then horizontally."""

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        return [Path.yx(mesh, c.src, c.snk) for c in problem.comms]
