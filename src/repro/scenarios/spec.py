"""Declarative, picklable platform specifications for the scenario engine.

A :class:`MeshSpec` names a mesh *by construction recipe* — dimensions plus
an optional fault list and power-scale regions — instead of by a live
:class:`~repro.mesh.topology.Mesh` object.  Specs are frozen dataclasses of
plain tuples, so they hash, compare, pickle and serialise trivially; the
heavyweight mesh (with its link arrays and profile vectors) is built on
demand with :meth:`MeshSpec.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]
#: one directed dead link: ((tail_u, tail_v), (head_u, head_v))
DeadLink = Tuple[Coord, Coord]
#: one derated region: (u0, v0, u1, v1, factor) — links with both endpoints
#: inside the inclusive rectangle get their power scaled by ``factor``
ScaleRect = Tuple[int, int, int, int, float]


def duplex(*adjacencies: Tuple[Coord, Coord]) -> Tuple[DeadLink, ...]:
    """Expand undirected adjacencies into both directed dead links.

    ``duplex(((2, 2), (2, 3)))`` kills the east *and* west link of the
    adjacency — the common physical-fault model (a broken wire takes out
    both directions).
    """
    out = []
    for a, b in adjacencies:
        out.append((tuple(a), tuple(b)))
        out.append((tuple(b), tuple(a)))
    return tuple(out)


@dataclass(frozen=True)
class MeshSpec:
    """A mesh construction recipe: dimensions + faults + derated regions.

    Parameters
    ----------
    p, q:
        Mesh dimensions.
    dead_links:
        Directed ``(tail, head)`` coordinate pairs to disable (see
        :func:`duplex` for killing whole adjacencies).
    scale_rects:
        ``(u0, v0, u1, v1, factor)`` entries; every link whose *both*
        endpoints lie inside the inclusive core rectangle has its power
        multiplied by ``factor``.  Overlapping rectangles compose
        multiplicatively.
    """

    p: int
    q: int
    dead_links: Tuple[DeadLink, ...] = ()
    scale_rects: Tuple[ScaleRect, ...] = ()

    def __post_init__(self) -> None:
        # normalise to nested plain tuples so equality/hash/pickle are
        # structural no matter how the spec was written down
        object.__setattr__(
            self,
            "dead_links",
            tuple(
                (tuple(int(c) for c in a), tuple(int(c) for c in b))
                for a, b in self.dead_links
            ),
        )
        object.__setattr__(
            self,
            "scale_rects",
            tuple(
                (int(u0), int(v0), int(u1), int(v1), float(f))
                for (u0, v0, u1, v1, f) in self.scale_rects
            ),
        )
        for (u0, v0, u1, v1, f) in self.scale_rects:
            if not (u0 <= u1 and v0 <= v1):
                raise InvalidParameterError(
                    f"scale rectangle ({u0},{v0})..({u1},{v1}) is empty"
                )
            if not f > 0:
                raise InvalidParameterError(
                    f"scale factor must be > 0, got {f}"
                )

    @property
    def is_pristine(self) -> bool:
        return not self.dead_links and not self.scale_rects

    def build(self) -> Mesh:
        """Materialise the spec as an immutable :class:`Mesh`."""
        mesh = Mesh(self.p, self.q)
        if self.dead_links:
            mesh = mesh.with_faults(list(self.dead_links))
        if self.scale_rects:
            scale = np.ones(mesh.num_links, dtype=np.float64)
            for (u0, v0, u1, v1, factor) in self.scale_rects:
                inside = (
                    (mesh.tail_u >= u0)
                    & (mesh.tail_u <= u1)
                    & (mesh.tail_v >= v0)
                    & (mesh.tail_v <= v1)
                    & (mesh.head_u >= u0)
                    & (mesh.head_u <= u1)
                    & (mesh.head_v >= v0)
                    & (mesh.head_v <= v1)
                )
                scale[inside] *= factor
            mesh = mesh.with_link_scale(scale)
        return mesh

    # convenience constructors -----------------------------------------
    @classmethod
    def pristine(cls, p: int, q: int) -> "MeshSpec":
        """The paper's homogeneous ``p × q`` platform."""
        return cls(p, q)

    @classmethod
    def center_derated(
        cls, p: int, q: int, factor: float, radius: int = 1
    ) -> "MeshSpec":
        """A hotspot stripe: the central ``(2r+1)²`` region runs derated."""
        cu, cv = p // 2, q // 2
        rect = (
            max(0, cu - radius),
            max(0, cv - radius),
            min(p - 1, cu + radius),
            min(q - 1, cv + radius),
            float(factor),
        )
        return cls(p, q, scale_rects=(rect,))

    def describe(self) -> str:
        """One-line human summary (used by ``repro scenarios list``)."""
        bits = [f"{self.p}x{self.q}"]
        if self.dead_links:
            bits.append(f"{len(self.dead_links)} dead links")
        if self.scale_rects:
            bits.append(f"{len(self.scale_rects)} derated regions")
        return ", ".join(bits)
